"""Multitiling verification, existence, and the two constructions."""

import itertools
import math
import random

import pytest

from cyclotile.coloring import CirculantSpec, structured_tile
from cyclotile.cyclotomic import cyclotomic, divisor_spectrum
from cyclotile.errors import (
    ModulusMismatch,
    MultiplicityOutOfRange,
    NotExists,
    NotPrimePower,
)
from cyclotile.oracle import search_tilings
from cyclotile.polyring import IntPolynomial, poly_divmod
from cyclotile.tiling import (
    MultitilingWitness,
    Tile,
    construct_multitiling,
    construct_tiling_prime_power,
    multitiling_exists,
    verify_multitiling,
)
from reference import coefficient_sum, cyclic_fold, is_prime_power


def folded_tile(f, p):
    """The tile whose values are the coefficients of f modulo x^p - 1."""
    return Tile(tuple(cyclic_fold(f.coeffs, p)))


def test_tile_basic():
    t = Tile((1, 0, 2))
    assert t.modulus == 3
    assert t.values == (1, 0, 2)
    with pytest.raises(ValueError):
        Tile(())


def test_verify_examples():
    u = Tile((1, 0, 1, 0))
    assert verify_multitiling(u, Tile((1, 1, 0, 0)), 1)
    assert verify_multitiling(u, Tile((1, 1, 1, 1)), 2)
    assert not verify_multitiling(u, Tile((1, 1, 1, 1)), 1)


def test_verify_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        verify_multitiling(Tile((1, 0)), Tile((1, 0, 0)), 1)


def test_exists_examples():
    verdict = multitiling_exists(Tile((1, 0, 1, 0)), 1)
    assert verdict.passed
    assert bool(verdict) is True
    assert verdict.spectrum.prime_power_product == 2

    # coefficient sum zero can never tile
    for m in (1, 2, -3, 7):
        verdict = multitiling_exists(Tile((1, -1, 0, 0)), m)
        assert not verdict.passed
        assert bool(verdict) is False

    assert multitiling_exists(Tile((1, 0, 0)), 5).passed


def test_exists_rejects_m_zero():
    with pytest.raises(ValueError):
        multitiling_exists(Tile((1, 0, 1, 0)), 0)


def test_exists_negative_m():
    # negative multiplicity is allowed by the divisibility test
    assert multitiling_exists(Tile((1, 0, 1, 0)), -1).passed
    w = construct_multitiling(Tile((1, 0, 1, 0)), -1)
    assert verify_multitiling(Tile((1, 0, 1, 0)), w.tile, -1)


def test_construct_multitiling_examples():
    w = construct_multitiling(Tile((1, 0, 0)), 3)
    assert w.tile.values == (3, 3, 3)

    w = construct_multitiling(Tile((1, 0, 1, 0)), 1)
    assert w.tile.values == (1, 1, 0, 0)
    assert w.multiplier == 1

    w = construct_multitiling(Tile((1, 0, 1, 0)), 2)
    assert w.tile.values == (2, 2, 0, 0)
    assert w.multiplier == 2


def test_construct_multitiling_not_exists():
    with pytest.raises(NotExists):
        construct_multitiling(Tile((1, -1, 0, 0)), 4)
    # sum 3 does not divide 1 * 1, and no cyclotomic factor helps
    with pytest.raises(NotExists):
        construct_multitiling(Tile((1, 1, 1, 0)), 1)


def test_witness_multiplier_identity():
    # the constant multiplier equals m * d(1) / masksum
    rng = random.Random(12)
    seen = 0
    while seen < 50:
        p = rng.randrange(2, 13)
        u = Tile(tuple(rng.randrange(0, 3) for _ in range(p)))
        m = rng.choice([1, 2, 3, 6, -2])
        if not multitiling_exists(u, m).passed:
            continue
        w = construct_multitiling(u, m)
        assert isinstance(w, MultitilingWitness)
        assert verify_multitiling(u, w.tile, m)
        mask_sum = sum(u.values)
        spectrum = divisor_spectrum(u.values)
        d_at_one = sum(_cofactor_by_division(p, spectrum.divisors)[1].coeffs)
        assert w.multiplier * mask_sum == m * d_at_one
        seen += 1


def test_prime_power_construction_examples():
    u = Tile((1, 0, 1, 0))
    assert construct_tiling_prime_power(u, 1).values == (1, 1, 0, 0)
    assert construct_tiling_prime_power(u, 2).values == (1, 1, 1, 1)
    with pytest.raises(MultiplicityOutOfRange):
        construct_tiling_prime_power(u, 3)


def test_prime_power_construction_rejects():
    with pytest.raises(NotPrimePower):
        construct_tiling_prime_power(Tile((1, 0, 1, 0, 0, 0)), 1)
    with pytest.raises(MultiplicityOutOfRange):
        construct_tiling_prime_power(Tile((1, 0, 1, 0)), 0)
    with pytest.raises(MultiplicityOutOfRange):
        construct_tiling_prime_power(Tile((1, 0, 1, 0)), -1)
    with pytest.raises(NotExists):
        construct_tiling_prime_power(Tile((1, 1, 1, 0)), 1)


def test_prime_power_construction_refuses_exactly_the_inexact_verdicts():
    # "P is a prime power" is decided once, as the existence verdict's exact flag
    rng = random.Random(19)
    tested = 0
    for i in range(600):
        p = rng.choice((2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64)) if i % 2 else rng.randrange(2, 65)
        u = Tile(tuple(rng.randrange(-1, 3) for _ in range(p)))
        mask_sum = sum(u.values)
        if mask_sum <= 0:
            continue
        m = rng.randrange(1, mask_sum + 1)
        verdict = multitiling_exists(u, m)
        assert verdict.exact == is_prime_power(p), p
        try:
            construct_tiling_prime_power(u, m)
        except NotPrimePower:
            refused = True
        except NotExists:
            refused = False
        else:
            refused = False
        assert refused == (not verdict.exact), (u, m)
        tested += 1
    assert tested > 400


def test_prime_power_outputs_are_zero_one():
    rng = random.Random(13)
    for p in (2, 3, 4, 5, 7, 8, 9, 16):
        for _ in range(40):
            u = Tile(tuple(rng.randrange(0, 3) for _ in range(p)))
            mask_sum = sum(u.values)
            if mask_sum == 0:
                continue
            for m in range(1, mask_sum + 1):
                if not multitiling_exists(u, m).passed:
                    continue
                v = construct_tiling_prime_power(u, m)
                assert set(v.values) <= {0, 1}
                assert verify_multitiling(u, v, m)


def _realized_multiplicities(u_values):
    """Constants achievable by convolving u with a 0/1 tile, by full enumeration."""
    p = len(u_values)
    support = [(h, u_values[h]) for h in range(p) if u_values[h]]
    out = set()
    for mask in range(1 << p):
        base = None
        constant = True
        for g in range(p):
            acc = 0
            for h, uv in support:
                if (mask >> ((g - h) % p)) & 1:
                    acc += uv
            if base is None:
                base = acc
            elif acc != base:
                constant = False
                break
        if constant:
            out.add(base)
    return out


def test_realized_multiplicities_matches_search_tilings():
    rng = random.Random(14)
    for _ in range(30):
        p = rng.randrange(2, 5)
        u = Tile(tuple(rng.randrange(0, 3) for _ in range(p)))
        realized = _realized_multiplicities(u.values)
        for m in range(1, 7):
            assert (m in realized) == bool(search_tilings(u, m))


def test_zero_one_completeness_on_prime_powers():
    # an m-tiling exists exactly when the constructor delivers one
    for p in (2, 3, 4, 5, 8, 9):
        for values in itertools.product(range(3), repeat=p):
            mask_sum = sum(values)
            if mask_sum == 0 or mask_sum > 6:
                continue
            u = Tile(values)
            realized = _realized_multiplicities(values)
            for m in range(1, mask_sum + 1):
                try:
                    v = construct_tiling_prime_power(u, m)
                except (NotExists, MultiplicityOutOfRange):
                    assert m not in realized, (values, m)
                else:
                    assert set(v.values) <= {0, 1}
                    assert verify_multitiling(u, v, m)
                    assert m in realized, (values, m)


def test_equation_equivalence_random():
    # convolution identity agrees with the polynomial congruence
    rng = random.Random(15)
    for _ in range(1000):
        p = rng.randrange(1, 21)
        u = Tile(tuple(rng.randrange(-3, 4) for _ in range(p)))
        v = Tile(tuple(rng.randrange(-3, 4) for _ in range(p)))
        m = rng.randrange(-6, 7)
        direct = verify_multitiling(u, v, m)
        product = IntPolynomial(u.values) * IntPolynomial(v.values)
        residue = cyclic_fold(coefficient_sum(product.coeffs, [-m] * p), p)
        assert direct == (not any(residue))


def _cofactor_by_division(p, divisors):
    """(x^P - 1) / ((x - 1) * d) by long division, and d, the product of Phi_n over the divisors."""
    product = IntPolynomial([1])
    for n in sorted(divisors):
        product = product * cyclotomic(n)
    x_p_minus_one = IntPolynomial([-1] + [0] * (p - 1) + [1])
    quotient, remainder = poly_divmod(x_p_minus_one, IntPolynomial([-1, 1]) * product)
    assert remainder.is_zero()
    return quotient, product


def _tiling_by_division(u, m):
    """The 0/1 m-tiling as built by polynomial arithmetic: the lowest
    m * d(1) / masksum monomials of the divisor product d, times
    (x^P - 1) / ((x - 1) * d)."""
    p = u.modulus
    base, product = _cofactor_by_division(p, multitiling_exists(u, m).spectrum.divisors)
    count = m * sum(product.coeffs) // sum(u.values)
    assert set(product.coeffs) <= {0, 1}
    chosen = [e for e, cf in enumerate(product.coeffs) if cf][:count]
    multiplier = IntPolynomial([1 if e in chosen else 0 for e in range(chosen[-1] + 1)])
    return folded_tile(multiplier * base, p)


def _witness_by_division(u, m):
    """C * (x^P - 1) / ((x - 1) * d) with C = m * d(1) / masksum, by long division."""
    base, product = _cofactor_by_division(u.modulus, multitiling_exists(u, m).spectrum.divisors)
    constant = m * sum(product.coeffs) // sum(u.values)
    return folded_tile(constant * base, u.modulus)


def _block_tile(rng, p):
    """A small random mask times one or two blocks 1 + x^q + ... + x^((b - 1) q), bq | P."""
    mask = IntPolynomial([rng.randrange(0, 3) for _ in range(3)] + [1])
    for _ in range(rng.randrange(1, 3)):
        b = rng.choice([d for d in range(2, p + 1) if p % d == 0])
        q = rng.choice([d for d in range(1, p // b + 1) if p // b % d == 0])
        block = [0] * ((b - 1) * q + 1)
        block[::q] = [1] * b
        mask = mask * IntPolynomial(block)
    return folded_tile(mask, p)


def _least_multiplicity(u):
    """The least m > 0 that passes the existence test for a tile with a positive mask sum."""
    mask_sum = sum(u.values)
    return mask_sum // math.gcd(mask_sum, multitiling_exists(u, mask_sum).spectrum.prime_power_product)


def test_multitiling_witness_matches_division():
    rng = random.Random(17)
    built = 0
    for values in [(0, 1)] * 300 + [(-1, 0, 1, 2)] * 300:
        p = rng.randrange(1, 40)
        u = Tile(tuple(rng.choice(values) for _ in range(p)))
        m = rng.choice([1, 2, 3, 4, 6, 12, -2]) * rng.choice([1, sum(u.values) or 1])
        if not multitiling_exists(u, m).passed:
            continue
        assert construct_multitiling(u, m).tile == _witness_by_division(u, m), (u, m)
        built += 1
    for _ in range(60):  # large spectra: products of blocks on orders with many divisors
        p = rng.choice([60, 72, 120, 180, 210, 240, 360, 420])
        u = _block_tile(rng, p)
        m = rng.randrange(1, 4) * _least_multiplicity(u)
        assert construct_multitiling(u, m).tile == _witness_by_division(u, m), (u, m)
        built += 1
    for p in (1024, 4096):
        for _ in range(3):
            u = _block_tile(rng, p)
            m = _least_multiplicity(u)
            assert construct_multitiling(u, m).tile == _witness_by_division(u, m), p
            built += 1
    assert built > 400


def test_prime_power_tiling_matches_division():
    rng = random.Random(16)
    built = 0
    for i in range(2400):
        p = rng.choice((2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256))
        if i % 2:  # a graph's structured tile
            distances = tuple(rng.randrange(0, 3 * p) for _ in range(rng.randrange(1, 6)))
            u = structured_tile(CirculantSpec(p, distances), rng.randrange(1, 12),
                                rng.randrange(1, 12))
        else:  # small random values times a block 1 + x^s + ... with a cyclotomic factor
            block = rng.choice([d for d in range(1, p + 1) if p % d == 0])
            mask = IntPolynomial([rng.randrange(0, 3) for _ in range(3)]) * IntPolynomial([1] * block)
            u = folded_tile(mask, p)
        mask_sum = sum(u.values)
        if mask_sum <= 0:
            continue
        m = rng.randrange(1, mask_sum + 1)
        if not multitiling_exists(u, m).passed:
            continue
        assert construct_tiling_prime_power(u, m) == _tiling_by_division(u, m), (u, m)
        built += 1
    assert built > 500
