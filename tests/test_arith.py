import math
import random

import pytest

from cyclotile import arith
from cyclotile.arith import (
    FACTOR_LIMIT,
    crt_basis,
    divisors,
    factorize,
)
from cyclotile.errors import InputTooLarge
from reference import is_prime_power


def test_divisors_small():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]


def test_divisors_brute_force():
    for n in range(1, 2000):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_factorize():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    # Brent's rho with c = 1 ends at g = n here, so it retries with c = 2
    assert factorize(1_260_913) == [(1031, 1), (1223, 1)]


def test_factorize_reconstructs():
    for n in range(1, 500):
        pairs = factorize(n)
        assert pairs == sorted(pairs)
        prod = 1
        for p, e in pairs:
            prod *= p ** e
        assert prod == n


def test_is_prime_power():
    # the reference the library's prime-power decisions are checked against
    def is_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    # build p^e values independently of factorize
    powers = set()
    for p in range(2, 300):
        if not is_prime(p):
            continue
        q = p
        while q < 300:
            powers.add(q)
            q *= p

    assert not is_prime_power(1)
    for n in range(2, 300):
        assert is_prime_power(n) == (n in powers), n
    assert is_prime_power(2 ** 10)
    assert is_prime_power(3 ** 7)
    assert not is_prime_power(36)


def test_crt_pairs():
    basis, modulus = crt_basis([3, 5])
    assert modulus == 15
    x = sum(r * e for r, e in zip([2, 3], basis)) % modulus
    assert x == next(y for y in range(15) if y % 3 == 2 and y % 5 == 3)


def test_crt_random():
    rng = random.Random(7)
    for _ in range(200):
        moduli = []
        while len(moduli) < 3:
            m = rng.randrange(2, 40)
            if all(math.gcd(m, seen) == 1 for seen in moduli):
                moduli.append(m)
        residues = [rng.randrange(m) for m in moduli]
        basis, modulus = crt_basis(moduli)
        assert modulus == math.prod(moduli)
        x = sum(r * e for r, e in zip(residues, basis)) % modulus
        # the least solution, searched along the residue class of the first modulus
        assert x == next(y for y in range(residues[0], modulus, moduli[0])
                         if all(y % m == r for r, m in zip(residues, moduli)))


def trial_factorize(n):
    """Plain trial division by every d from 2, independent of arith's prime table."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_by_trial(n):
    return n >= 2 and trial_factorize(n) == [(n, 1)]


def test_factorize_matches_trial_division_below_20000():
    for n in range(1, 20001):
        assert factorize(n) == trial_factorize(n), n


def test_factorize_matches_trial_division_on_random_n():
    # below 10^12 the test's own trial division stays under 10^6 steps
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 10**12)
        assert factorize(n) == trial_factorize(n), n


@pytest.mark.parametrize("n, expected", [
    (3215031751, [(151, 1), (751, 1), (28351, 1)]),  # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),  # bases 2 to 37
    # strong pseudoprime to the first 12 prime bases; only base 41 exposes it
    (318665857834031151167461, [(399165290221, 1), (798330580441, 1)]),
])
def test_factorize_strong_pseudoprimes(n, expected):
    assert factorize(n) == expected
    assert math.prod(p**e for p, e in expected) == n


def test_factorize_carmichael_numbers():
    for n, expected in [(561, [(3, 1), (11, 1), (17, 1)]),
                        (41041, [(7, 1), (11, 1), (13, 1), (41, 1)]),
                        (9746347772161, [(7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (31, 1),
                                         (37, 1), (41, 1), (641, 1)])]:
        assert factorize(n) == expected
    # Chernick's (6k+1)(12k+1)(18k+1) with all three prime is a Carmichael number;
    # these k put every factor above the trial-division table
    found = 0
    for k in range(171, 400):
        primes = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        if all(is_prime_by_trial(p) for p in primes):
            assert factorize(math.prod(primes)) == [(p, 1) for p in primes]
            found += 1
    assert found >= 3


def test_factorize_squares_and_powers():
    assert factorize(1000003**2) == [(1000003, 2)]
    assert factorize((10**12 + 39)**2) == [(10**12 + 39, 2)]
    assert factorize(2**80) == [(2, 80)]
    assert factorize(1031**3 * 1033) == [(1031, 3), (1033, 1)]
    assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]


def test_factorize_two_twelve_digit_primes():
    p, q = 100000000003, 999999999989
    assert factorize(p * q) == [(p, 1), (q, 1)]


def test_factorize_is_deterministic():
    for n in (3825123056546413051, 1000003 * 1000033, 2**61 - 1, 720720):
        assert factorize(n) == factorize(n)


def test_factorize_checks_its_product(monkeypatch):
    monkeypatch.setattr(arith, "_large_prime_factors", lambda n: [n, 2])
    with pytest.raises(AssertionError):
        factorize(1000003 * 1000033)


def test_factorize_limit():
    expected = [(2, 2), (3, 4), (5, 1), (127, 1), (18778597, 1), (858557454841, 1)]
    assert factorize(FACTOR_LIMIT - 1) == expected
    assert math.prod(p**e for p, e in expected) == FACTOR_LIMIT - 1
    assert all(is_prime_by_trial(p) for p, _ in expected)
    for n in (FACTOR_LIMIT, FACTOR_LIMIT + 1, 10**30):
        with pytest.raises(InputTooLarge):
            factorize(n)
        with pytest.raises(InputTooLarge):
            divisors(n)
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_of_large_n():
    n = 2**10 * 1000003 * 1000033
    divs = divisors(n)
    assert len(divs) == 11 * 2 * 2
    assert divs == sorted(divs) and all(n % d == 0 for d in divs)
    assert divs[0] == 1 and divs[-1] == n
