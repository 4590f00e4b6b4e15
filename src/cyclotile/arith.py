"""Small exact integer helpers: divisors, factorization, CRT.

factorize divides out the primes below 1024 by trial division. Whatever
cofactor is left has only prime factors above 1024; Miller-Rabin with
the first 13 primes as bases decides whether it is prime, which is exact
below FACTOR_LIMIT (Sorenson and Webster, Strong pseudoprimes to twelve
prime bases, Math. Comp. 2017), and Pollard's rho in Brent's form splits
it when it is not (Brent, An improved Monte Carlo factorization
algorithm, BIT 1980). The rho walk has fixed seeds, so every call gives
the same answer, and all of it is integer arithmetic.
"""

from math import gcd, isqrt

from .errors import InputTooLarge

# the least strong pseudoprime to all of MILLER_RABIN_BASES; below it the test is exact
FACTOR_LIMIT = 3_317_044_064_679_887_385_961_981
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_BOUND = 1024  # trial division by the primes below this, rho beyond it
_RHO_BATCH = 128  # rho steps whose differences share one gcd


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        multiples = divs
        for _ in range(e):  # the divisors so far times p, p^2, ..., p^e
            multiples = [d * p for d in multiples]
            divs = divs + multiples
    return sorted(divs)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending primes.

    Raises InputTooLarge for n >= FACTOR_LIMIT, where Miller-Rabin with
    these bases is no longer proven exact.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n >= FACTOR_LIMIT:
        raise InputTooLarge("cannot factorize %d: Miller-Rabin is proven exact only below %d"
                            % (n, FACTOR_LIMIT))
    whole = n
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    else:
        if n > 1:  # every prime factor of n is above the table
            primes = _large_prime_factors(n)
            out.extend((p, primes.count(p)) for p in sorted(set(primes)))
            n = 1
    if n > 1:
        out.append((n, 1))
    check = 1
    for p, e in out:
        check *= p**e
    if check != whole:
        raise AssertionError("factorization %r does not multiply to %d" % (out, whole))
    return out


def _large_prime_factors(n: int) -> list[int]:
    """The prime factors of n, with multiplicity, when none is below _TRIAL_BOUND."""
    pending, primes = [n], []
    while pending:
        m = pending.pop()
        if _is_prime(m):
            primes.append(m)
        else:
            d = _brent_rho(m)
            pending += [d, m // d]
    return primes


def _is_prime(n: int) -> bool:
    """Miller-Rabin on odd n > 41 with every base in MILLER_RABIN_BASES."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A proper divisor of composite n: Pollard's rho with Brent's cycle detection.

    The walk is y -> y^2 + c mod n from y = 2, with c = 1, 2, ... in turn
    until a walk splits n. Differences are multiplied together in batches
    and one gcd is taken per batch; a batch whose gcd is all of n is
    stepped through again one difference at a time.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1


def crt_basis(moduli: list[int]) -> tuple[list[int], int]:
    """The CRT basis e_i of pairwise coprime m_i, and their product M.

    e_i is 1 mod m_i and 0 mod every other m_j, so for any residues the
    solution of x = r_i (mod m_i) is sum r_i * e_i mod M. Computing the
    basis once serves every residue vector over the same moduli.
    """
    total = 1
    for m in moduli:
        total *= m
    basis = []
    for m in moduli:
        rest = total // m
        basis.append(rest * pow(rest, -1, m))
    return basis, total
