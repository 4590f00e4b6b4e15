"""Multitiling verification, existence, and the two constructions."""

import collections
import itertools
import math
import random
import time

import pytest

from cyclotile.coloring import CirculantSpec, structured_tile
from cyclotile.cyclotomic import cyclotomic, divisor_spectrum
from cyclotile.errors import NotExists
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
from reference import coefficient_sum, cyclic_fold, direct_cover, is_prime_power


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
    with pytest.raises(ValueError, match="tiles live on groups of order 2 and 3"):
        verify_multitiling(Tile((1, 0)), Tile((1, 0, 0)), 1)
    # raised before the mass check: masses that disagree on either group, and that would agree
    for u, v, m in [((1, 1), (0, 0, 0), 5), ((1, 0), (1, 1, 1), 1), ((2,), (1, 1), 1), ((1, 0, 0), (0,), 0)]:
        with pytest.raises(ValueError, match="tiles live on groups of order %d and %d" % (len(u), len(v))):
            verify_multitiling(Tile(u), Tile(v), m)


def _cover_cases(rng):
    """(u, v, m) value tuples for the verdict test, and the tiles search_tilings hits at P <= 12."""
    cases = []
    for _ in range(2000):
        p = rng.choice([1, 1, 2, 3, rng.randrange(4, 13), rng.randrange(13, 25)])
        u = tuple(rng.randrange(-3, 4) if rng.random() < 0.7 else 0 for _ in range(p))
        shape = rng.randrange(4)
        if shape == 0:
            v = (0,) * p
        elif shape == 1:  # dense, no zero
            v = tuple(rng.choice((-2, -1, 1, 2, 3)) for _ in range(p))
        elif shape == 2:  # a constant v covers with j * sum(u) everywhere
            v = (rng.randrange(-2, 4),) * p
        else:
            v = tuple(rng.randrange(-2, 3) if rng.random() < 0.5 else 0 for _ in range(p))
        mass = sum(u) * sum(v)
        m = mass // p if mass % p == 0 and rng.random() < 0.7 else rng.randrange(-6, 7)
        cases.append((u, v, m))
    hits = []
    for p in range(3, 13):
        spec = CirculantSpec(p, (1, 2))
        for b in range(1, 5):
            for c in range(1, 5):
                u = structured_tile(spec, b, c)
                hits += [(u.values, v.values, c) for v in search_tilings(u, c)]
        for _ in range(3):
            u = Tile(tuple(rng.randrange(0, 3) for _ in range(p)))
            for m in range(1, 4):
                hits += [(u.values, v.values, m) for v in search_tilings(u, m)]
    return cases, hits


def test_verify_matches_the_direct_cover():
    # the mass check and the rows over v's support give the verdict of the full double
    # loop: signed values in both tiles, zeros, all-zero and dense v, P = 1, m = 0 and
    # m < 0, masses that agree and that do not, and every search_tilings hit at P <= 12;
    # "g < h" counts the verdicts decided by a row g that reads u(g - h) below index 0
    cases, hits = _cover_cases(random.Random(29))
    seen = collections.Counter()
    for u, v, m in cases + hits:
        p = len(u)
        verdict = verify_multitiling(Tile(u), Tile(v), m)
        rows = direct_cover(u, v)
        assert verdict == (rows == [m] * p), (u, v, m)
        agrees = sum(u) * sum(v) == p * m
        deciding = next((g for g, row in enumerate(rows) if row != m), 0)
        seen["g < h"] += agrees and any(v[deciding + 1:])
        seen["agree", verdict] += agrees
        seen["disagree"] += not agrees
        seen["P = 1"] += p == 1
        seen["zero v"] += not any(v)
        seen["dense v"] += p > 1 and all(v)
        seen["signed"] += min(u) < 0 < max(u) and min(v) < 0 < max(v)
        seen["m = 0"] += m == 0
        seen["m < 0"] += m < 0
    assert len(cases) + len(hits) >= 2000 and len(hits) > 100
    assert min(seen.values()) > 50, seen


def test_verify_rejects_a_wrong_mass_in_linear_time():
    # on 2^16 vertices, v the first 64 and u all ones but a 2 at P - 64: every row is 64
    # but the last 64 rows, so the rows alone would take ~4e6 steps over v's support
    # (~4e9 over every cell) before one fails, and only the mass check rejects v at once
    p = 1 << 16
    u = Tile((1,) * (p - 64) + (2,) + (1,) * 63)
    v = Tile((1,) * 64 + (0,) * (p - 64))
    start = time.perf_counter()
    assert not verify_multitiling(u, v, 64)
    assert time.perf_counter() - start < 0.1
    rows = [sum(u.values[(g - h) % p] for h in range(64)) for g in (0, p - 65, p - 64, p - 1)]
    assert rows == [64, 64, 65, 65]


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
    # every tile operation that looks for a cover refuses m = 0, on a tile of sum zero
    # and on one of nonzero sum, and the two deciders still answer a negative m;
    # verify_multitiling checks a given cover, so it answers m = 0 (see its random cases)
    for u, passes in ((Tile((1, -1, 0, 0)), False), (Tile((1, 0, 1, 0)), True)):
        for operation in (multitiling_exists, construct_multitiling, construct_tiling_prime_power,
                          search_tilings):
            with pytest.raises(ValueError):
                operation(u, 0)
        assert multitiling_exists(u, -1).passed == passes
        assert search_tilings(u, -1) == []
        assert verify_multitiling(u, Tile((0, 0, 0, 0)), 0)
    assert [v.values for v in search_tilings(Tile((-1, 0, -1, 0)), -1)] == [
        (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]


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
    with pytest.raises(ValueError, match="need 0 < m <= 2, got m = 3"):
        construct_tiling_prime_power(u, 3)


def test_prime_power_construction_rejects():
    with pytest.raises(ValueError, match="group order 6 is not a prime power"):
        construct_tiling_prime_power(Tile((1, 0, 1, 0, 0, 0)), 1)
    with pytest.raises(ValueError, match="need 0 < m <= 2, got m = 0"):
        construct_tiling_prime_power(Tile((1, 0, 1, 0)), 0)
    with pytest.raises(ValueError, match="need 0 < m <= 2, got m = -1"):
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
        except ValueError as exc:
            assert "not a prime power" in str(exc), exc
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
                except NotExists:
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
