import functools
import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cyclotile.arith import factorize
from cyclotile.cyclotomic import _spectrum_plan, cyclotomic, cyclotomic_divides, divisor_spectrum
from cyclotile.polyring import IntPolynomial, poly_divmod
from reference import cyclic_fold, is_prime_power


def totient(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def x_power_minus_one(n):
    return IntPolynomial([-1] + [0] * (n - 1) + [1])


def product_of_cyclotomics(indices):
    prod = IntPolynomial([1])
    for n in sorted(indices):
        prod = prod * cyclotomic(n)
    return prod


def test_first_values():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)


def test_degree_is_totient():
    for n in range(1, 120):
        assert len(cyclotomic(n).coeffs) - 1 == totient(n)


def test_divisor_product_identity():
    # the product goes through the multiplication kernel, not division
    for n in list(range(1, 601)) + [2310, 4600, 4620, 30030]:
        prod = product_of_cyclotomics(d for d in range(1, n + 1) if n % d == 0)
        assert prod.coeffs == x_power_minus_one(n).coeffs, n


@functools.lru_cache(maxsize=None)
def _recursive_cyclotomic(n):
    """x^n - 1 divided in turn by Phi_d for every proper divisor d of n."""
    poly = x_power_minus_one(n)
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod(poly, _recursive_cyclotomic(d))
            assert rem.is_zero(), (n, d)
    return poly


def test_matches_recursive_division():
    for n in range(1, 201):
        assert cyclotomic(n).coeffs == _recursive_cyclotomic(n).coeffs, n


def test_cyclotomic_memo_is_bounded_and_rebuilds_what_it_evicted():
    # more distinct n than the memo holds: it keeps at most 128, and a polynomial built
    # before an eviction, rebuilt after it or built last still gives prod_{d | n} Phi_d = x^n - 1
    cyclotomic.cache_clear()
    early = [12, 30, 105]
    for n in early:
        assert product_of_cyclotomics(d for d in range(1, n + 1) if n % d == 0) == \
            x_power_minus_one(n), n
    for n in range(1, 401):
        cyclotomic(n)
    info = cyclotomic.cache_info()
    assert info.maxsize == 128 and info.currsize <= 128 and info.misses > 128
    for n in early + [396, 400]:
        assert product_of_cyclotomics(d for d in range(1, n + 1) if n % d == 0) == \
            x_power_minus_one(n), n
    assert cyclotomic.cache_info().misses > info.misses  # the early ones were evicted
    assert cyclotomic.cache_info().currsize <= 128


def test_new_prime_identity_at_seven_primes():
    # Phi_m(x^p) = Phi_mp(x) * Phi_m(x) for a prime p not dividing m; here 510510 = 30030 * 17
    base = cyclotomic(30030).coeffs
    spread = [0] * (17 * (len(base) - 1) + 1)
    spread[::17] = base
    assert (cyclotomic(510510) * cyclotomic(30030)).coeffs == tuple(spread)


def test_prime_power_closed_form_up_to_the_cap():
    # Phi_{p^a}(x) = sum over j < p of x^(j p^(a-1)), up to the degree cap at 2^18
    for p, a in [(2, 1), (2, 5), (2, 17), (3, 1), (3, 7), (3, 11), (5, 4), (7, 3), (17, 2),
                 (251, 2), (257, 2), (131071, 1)]:
        n = p**a
        assert n <= 2**18
        step = p ** (a - 1)
        expected = [0] * ((p - 1) * step + 1)
        expected[::step] = [1] * p
        assert cyclotomic(n).coeffs == tuple(expected), n
    assert cyclotomic(262144).coeffs == (1,) + (0,) * 131071 + (1,)


def test_value_at_one():
    # p at prime powers, 1 elsewhere above 1, 0 at n=1
    assert sum(cyclotomic(1).coeffs) == 0
    for n in range(2, 120):
        value = sum(cyclotomic(n).coeffs)
        factors = {}
        m = n
        p = 2
        while m > 1:
            while m % p == 0:
                factors[p] = factors.get(p, 0) + 1
                m //= p
            p += 1
        if len(factors) == 1:
            assert value == next(iter(factors))
        else:
            assert value == 1


def test_divides():
    assert cyclotomic_divides(4, IntPolynomial([1, 0, 1]))
    assert not cyclotomic_divides(2, IntPolynomial([1, 0, 1]))
    assert cyclotomic_divides(3, IntPolynomial([1, 0, 1, 0, 1]))
    assert cyclotomic_divides(6, IntPolynomial([1, 0, 1, 0, 1]))


def test_cyclotomic_rejects_a_nonpositive_index():
    for n in (0, -4):
        with pytest.raises(ValueError):
            cyclotomic(n)


def test_divides_zero_rejected():
    with pytest.raises(ValueError):
        cyclotomic_divides(3, IntPolynomial([]))


def test_spectrum_phi4():
    spec = divisor_spectrum([1, 0, 1, 0])
    assert spec.divisors == frozenset({4})
    assert spec.prime_power_subset == frozenset({4})


def test_spectrum_full_mask():
    spec = divisor_spectrum([1, 1, 1, 1])
    assert spec.divisors == frozenset({2, 4})
    assert spec.prime_power_subset == frozenset({2, 4})


def test_spectrum_unit():
    spec = divisor_spectrum(cyclic_fold([1], 12))
    assert spec.divisors == frozenset()
    assert spec.prime_power_product == 1


def test_spectrum_zero_mask():
    with pytest.raises(ValueError, match="mask vanishes modulo x\\^5 - 1"):
        divisor_spectrum([0] * 5)
    # x^4 - 1 vanishes mod itself
    with pytest.raises(ValueError, match="mask vanishes modulo x\\^4 - 1"):
        divisor_spectrum(cyclic_fold(x_power_minus_one(4).coeffs, 4))
    # no values is no group, as for a tile
    with pytest.raises(ValueError):
        divisor_spectrum([])


def test_spectrum_contains_one_iff_root_at_one():
    spec = divisor_spectrum(cyclic_fold([-1, 1], 6))
    assert 1 in spec.divisors
    assert 1 not in spec.prime_power_subset


def test_product_at_one_values():
    spec = divisor_spectrum([1, 1, 1, 1])
    assert spec.prime_power_product == 4
    spec2 = divisor_spectrum([1, 0, 1, 0])
    assert spec2.prime_power_product == 2


def test_full_and_prime_power_products_agree_at_one():
    # non prime power indices contribute 1, so the two products
    # evaluate identically whenever x=1 is not a root
    cases = [
        ([1, 1, 1, 1, 1, 1], 6),
        ([1, 0, 1], 12),
        ([2, 1, 1], 6),
        ([1, 1, 1, 1], 12),
    ]
    for values, p in cases:
        spec = divisor_spectrum(cyclic_fold(values, p))
        if 1 in spec.divisors:
            continue
        assert sum(product_of_cyclotomics(spec.divisors).coeffs) == spec.prime_power_product


def test_divisor_product_at_one_closed_form():
    # the divisor product at 1 is 0 exactly when the mask sums to 0 (Phi_1
    # divides), and otherwise the prime-power closed form
    rng = random.Random(33)
    zero_sum = 0
    for i in range(300):
        p = rng.randrange(1, 25)
        values = [rng.randrange(-2, 3) for _ in range(p)]
        if i % 3 == 0:
            values[-1] -= sum(values)
        if not any(values):
            continue
        spec = divisor_spectrum(values)
        zero_sum += 1 in spec.divisors
        assert (1 in spec.divisors) == (sum(values) == 0), values
        closed_form = 0 if 1 in spec.divisors else spec.prime_power_product
        product = product_of_cyclotomics(spec.divisors)
        assert closed_form == sum(product.coeffs), values
    assert zero_sum > 50


def _cyclic_shift(values, s):
    """values times x^s modulo x^P - 1, P = len(values)."""
    s %= len(values)
    return values[-s:] + values[:-s]


def _blocked_mask(rng, p):
    """A small random mask times two blocks 1 + x^q + ... + x^((b - 1) q), bq | P, mod x^P - 1."""
    values = [0] * p
    for e in range(4):
        values[e % p] += rng.randrange(0, 3)
    values[0] += 1
    for _ in range(2):
        sizes = [b for b in range(2, 17) if p % b == 0]
        if not sizes:
            break
        b = rng.choice(sizes)
        q = rng.choice([q for q in range(1, p // b + 1) if p // b % q == 0])
        copies = [_cyclic_shift(values, i * q) for i in range(b)]
        values = [sum(column) for column in zip(*copies)]
    return values


def _zero_sum(rng, values, how):
    """values made to sum to 0: the last value absorbs the sum, or times 1 - x^s."""
    if how == 0:
        return values[:-1] + [values[-1] - sum(values)]
    shifted = _cyclic_shift(values, rng.randrange(1, len(values) + 1))
    return [a - b for a, b in zip(values, shifted)]


def test_walk_product_is_the_product_of_the_primes():
    # the walk multiplies in p for each Phi_{p^j} it accepts; here each p comes from factorize
    rng = random.Random(47)
    cases = []
    for i in range(240):
        p = rng.randrange(1, 61)
        values = _blocked_mask(rng, p) if i % 2 else [rng.randrange(-2, 3) for _ in range(p)]
        cases.append((p, values if i % 3 == 0 else _zero_sum(rng, values, i % 3 - 1)))
    for p in (720720, 2**19):
        values = _blocked_mask(rng, p)
        cases += [(p, values), (p, _zero_sum(rng, values, 1))]
    nontrivial = set()
    for p, values in cases:
        if not any(values):
            continue
        spec = divisor_spectrum(values)
        assert spec.prime_power_subset == {n for n in spec.divisors if len(factorize(n)) == 1}
        primes = [factorize(n)[0][0] for n in spec.prime_power_subset]
        assert spec.prime_power_product == math.prod(primes), (p, sorted(spec.divisors))
        if spec.prime_power_product > 1:
            nontrivial.add((p > 60, sum(values) == 0))
    assert nontrivial == {(False, False), (False, True), (True, False), (True, True)}


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in list(range(1, 301)) + [2310, 4620]:
        expected = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic(n).coeffs == tuple(int(cf) for cf in expected), n


def test_spectrum_membership_matches_division():
    # the second mask is (1 + x + x^2)(1 - x^3): its fold modulo x^3 - 1 is zero
    folds_to_zero = 0
    for f in (IntPolynomial([1, 2, 0, 1, 1]), IntPolynomial([1, 1, 1, -1, -1, -1])):
        for p in (6, 8, 9, 12):
            folded = cyclic_fold(f.coeffs, p)
            spec = divisor_spectrum(folded)
            reduced = IntPolynomial(folded)
            for n in range(1, p + 1):
                if p % n:
                    continue
                assert (n in spec.divisors) == cyclotomic_divides(n, reduced), (f, p, n)
                folds_to_zero += not any(cyclic_fold(reduced.coeffs, n))
    assert folds_to_zero > 0


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_spectrum_matches_division_on_every_small_mask():
    # every nonzero 0/1 mask with P <= 12 and every {-1, 0, 1} mask with P <= 7, each n | P
    # (n = 1 included) against the remainder of dividing the fold modulo x^n - 1 by Phi_n
    masks = [(p, mask) for p in range(1, 13) for mask in itertools.product((0, 1), repeat=p)]
    masks += [(p, mask) for p in range(1, 8) for mask in itertools.product((-1, 0, 1), repeat=p)]
    checks = 0
    for p, mask in masks:
        if not any(mask):
            continue
        spec = divisor_spectrum(mask)
        for n in _divisors(p):
            _, rem = poly_divmod(IntPolynomial(cyclic_fold(mask, n)), cyclotomic(n))
            assert (n in spec.divisors) == rem.is_zero(), (p, mask, n)
            checks += 1
        powers = [n for n in spec.divisors if is_prime_power(n)]
        assert spec.prime_power_product == math.prod(factorize(n)[0][0] for n in powers), (p, mask)
    assert checks == 44021


def test_spectrum_plans_evicted_and_rebuilt_give_the_same_spectra():
    # more group orders than the plan cache holds, visited in two shuffled passes with a
    # revisit of a recent one after each: plans are evicted, rebuilt and reused in turn
    squarefree = [p for p in range(30, 401) if len(factorize(p)) >= 3 and
                  all(e == 1 for _, e in factorize(p))]
    prime_powers = [p for p in range(2, 401) if is_prime_power(p)]
    moduli = prime_powers + squarefree + [12, 24, 36, 48, 60, 120, 180, 240, 360]
    assert len(moduli) > _spectrum_plan.cache_info().maxsize
    rng = random.Random(30)
    visits = []
    for _ in range(2):
        order = rng.sample(moduli, len(moduli))
        for i, p in enumerate(order):
            visits += [p, order[max(i - 3, 0)]]
    _spectrum_plan.cache_clear()
    zero_folds = 0
    for p in visits:
        mask = [rng.choice((-1, 0, 1, 2)) for _ in range(p - 1)] + [rng.choice((-1, 1, 2))]
        blocks = [n for n in _divisors(p) if 2 * n <= p]
        if blocks and rng.random() < 0.5:  # a block and its negative: the fold modulo x^n - 1 is 0
            n = rng.choice(blocks)
            block = [rng.choice((0, 1)) for _ in range(n - 1)] + [1]
            mask = block + [-a for a in block] + [0] * (p - 2 * n)
        spec = divisor_spectrum(mask)
        assert spec.primes == tuple(q for q in range(2, p + 1)
                                    if p % q == 0 and all(q % r for r in range(2, q)))
        for n in _divisors(p):
            fold = cyclic_fold(mask, n)
            zero_folds += not any(fold)
            divides = not any(fold) or cyclotomic_divides(n, IntPolynomial(fold))
            assert (n in spec.divisors) == divides, (p, mask, n)
    info = _spectrum_plan.cache_info()
    assert info.misses > len(moduli) and info.hits > 0 and zero_folds > 0, info


@st.composite
def masks_with_cyclotomic_factors(draw):
    """A modulus P and a nonzero mask on it: small random integers times a few
    factors x^s - 1 or 1 + x^s + ... + x^((r - 1)s) with rs | P, which carry
    cyclotomic factors Phi_n with n | P."""
    p = draw(st.integers(1, 64) | st.sampled_from([128, 243, 2310]))
    mask = IntPolynomial(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=8)))
    for _ in range(draw(st.integers(0, 2))):
        block = draw(st.sampled_from(_divisors(p)))
        s = draw(st.sampled_from(_divisors(block)))
        if draw(st.booleans()):
            mask = mask * IntPolynomial([-1] + [0] * (s - 1) + [1])
        else:
            mask = mask * IntPolynomial(([1] + [0] * (s - 1)) * (block // s))
    return p, mask.coeffs


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(masks_with_cyclotomic_factors())
@example((6, [1, 1, 0, 2, 0, 1]))  # length P
@example((4, (1, 0, 2, 0, -1, 1, 0, 3, 0, 0, 1)))  # length 2P + 3, a tuple
@example((12, [1, 0, 1, 0, 1]))  # shorter than P
@example((4, [1, 2, 0, 0, -1, -2]))  # (1 + 2x)(1 - x^4) folds to zero
def test_spectrum_matches_division_on_random_masks(case):
    # the reference: Phi_n divides the fold modulo x^n - 1 when the remainder of dividing it is zero
    p, mask = case
    reduced = cyclic_fold(mask, p)
    if not any(reduced):
        with pytest.raises(ValueError, match="mask vanishes modulo x\\^%d - 1" % p):
            divisor_spectrum(reduced)
        return
    spec = divisor_spectrum(reduced)
    for n in _divisors(p):
        _, rem = poly_divmod(IntPolynomial(cyclic_fold(reduced, n)), cyclotomic(n))
        assert (n in spec.divisors) == rem.is_zero(), (p, mask, n)
        assert (n in spec.prime_power_subset) == (rem.is_zero() and is_prime_power(n)), (p, n)
