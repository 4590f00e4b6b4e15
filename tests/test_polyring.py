"""Exact integer polynomial arithmetic, the substrate everything else sits on."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclotile.errors import InexactDivision
from cyclotile.polyring import (
    IntPolynomial,
    convolve,
    poly_divmod,
)
from reference import coefficient_sum, cyclic_fold, value_at


def P(*coeffs):
    return IntPolynomial(coeffs)


def plus(f, g):
    return IntPolynomial(coefficient_sum(f.coeffs, g.coeffs))


def test_canonical_form():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0, 0]).coeffs == ()
    assert IntPolynomial([]).is_zero()
    assert P(0, 0, 5).coeffs == (0, 0, 5)


def test_add_sub():
    # a difference is a sum with the -1 multiple
    assert plus(P(1, 1), -1 * P(1, 1)).is_zero()
    assert (-1 * P(1, -2)).coeffs == (-1, 2)


def test_mul_difference_of_squares():
    assert (P(1, 1) * P(-1, 1)).coeffs == (-1, 0, 1)


def test_mul_phi1_phi2():
    # (x-1)(x+1) = x^2-1, the n=2 instance of the divisor product identity
    assert (P(-1, 1) * P(1, 1)).coeffs == (-1, 0, 1)


def test_mul_expansion():
    assert (P(1, 0, 1) * P(1, 1)).coeffs == (1, 1, 1, 1)


def test_mul_degree_adds():
    rng = random.Random(1)
    for _ in range(100):
        f = IntPolynomial([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))] + [rng.randrange(1, 4)])
        g = IntPolynomial([rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))] + [rng.randrange(1, 4)])
        assert len((f * g).coeffs) - 1 == (len(f.coeffs) - 1) + (len(g.coeffs) - 1)


def _double_loop(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


COEFFICIENTS = st.lists(st.integers(-3, 3) | st.integers(-10**40, 10**40), max_size=40)


@settings(max_examples=300, deadline=None, database=None)
@given(COEFFICIENTS, COEFFICIENTS)
@example([7], [-3])
@example([0, 0, 0], [10**40])
@example([10**40, -10**40], [-10**40, 10**40, -10**40])
@example([-128, 127, -1], [1, 255, -256])
@example([], [1])
def test_convolve_matches_double_loop(a, b):
    assert convolve(a, b) == _double_loop(a, b)


def test_mul_by_int():
    assert (3 * P(1, -1)).coeffs == (3, -3)
    assert (P(1, -1) * 0).is_zero()


def test_exact_div_quartic():
    q, r = poly_divmod(P(-1, 0, 0, 0, 1), P(1, 0, 1))
    assert r.is_zero()
    assert q.coeffs == (-1, 0, 1)


def test_exact_div_ninth_roots():
    # (x^9-1)/(x^3-1) = x^6+x^3+1
    q, r = poly_divmod(P(-1, 0, 0, 0, 0, 0, 0, 0, 0, 1), P(-1, 0, 0, 1))
    assert r.is_zero()
    assert q.coeffs == (1, 0, 0, 1, 0, 0, 1)


def test_divmod_classical():
    q, r = poly_divmod(P(1, 0, 1), P(1, 1))
    assert q.coeffs == (-1, 1)
    assert r.coeffs == (2,)


def test_divmod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(P(1), IntPolynomial([]))


def test_divmod_random_roundtrip():
    rng = random.Random(2)
    for _ in range(200):
        g = IntPolynomial([rng.randrange(-3, 4) for _ in range(rng.randrange(0, 5))] + [1])
        f = IntPolynomial([rng.randrange(-9, 10) for _ in range(rng.randrange(0, 10))])
        q, r = poly_divmod(f, g)
        assert plus(q * g, r).coeffs == f.coeffs
        assert len(r.coeffs) < len(g.coeffs)


def _dense_divmod(f, g):
    """Schoolbook division over every coefficient of g, zeros included."""
    rem, lead, shift = list(f.coeffs), g.coeffs[-1], len(g.coeffs) - 1
    quot = [0] * max(0, len(rem) - shift)
    for i in range(len(rem) - 1, shift - 1, -1):
        q, leftover = divmod(rem[i], lead)
        if leftover:
            raise InexactDivision(i)
        quot[i - shift] = q
        for j, gc in enumerate(g.coeffs):
            rem[i - shift + j] -= q * gc
    return IntPolynomial(quot), IntPolynomial(rem[:shift])


SMALL = st.integers(-9, 9)
SPARSE = st.lists(st.just(0) | st.just(0) | st.just(0) | SMALL, max_size=30)


@settings(max_examples=500, deadline=None, database=None)
@given(SPARSE, st.sampled_from([1, -1, 2, -2, 3, -3]), SPARSE, st.lists(SMALL, max_size=20))
@example([0] * 11, 1, [], [5])
@example([-1] + [0] * 6, 1, [1, 0, 0, 1], [1])
@example([1], 2, [1], [])
@example([0, 1], 2, [], [1])
def test_divmod_sparse_divisor(lower, lead, cofactor, extra):
    # agrees with the dense division, InexactDivision included; a monic g never raises
    g = IntPolynomial(lower + [lead])
    f = plus(IntPolynomial(cofactor) * g, IntPolynomial(extra))
    try:
        expected = _dense_divmod(f, g)
    except InexactDivision:
        assert abs(lead) > 1
        with pytest.raises(InexactDivision):
            poly_divmod(f, g)
        return
    q, r = poly_divmod(f, g)
    assert (q, r) == expected
    assert plus(q * g, r).coeffs == f.coeffs
    assert len(r.coeffs) < len(g.coeffs)


def test_exact_div_recovers_factor():
    rng = random.Random(3)
    for _ in range(100):
        g = IntPolynomial([rng.randrange(-4, 5) for _ in range(rng.randrange(0, 6))] + [1])
        f = IntPolynomial([rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))])
        if f.is_zero():
            continue
        q, r = poly_divmod(f * g, g)
        assert r.is_zero()
        assert q.coeffs == f.coeffs


def test_reduce_idempotent_and_homomorphic():
    rng = random.Random(4)
    for _ in range(200):
        p = rng.randrange(1, 9)
        f = IntPolynomial([rng.randrange(-3, 4) for _ in range(rng.randrange(0, 14))])
        g = IntPolynomial([rng.randrange(-3, 4) for _ in range(rng.randrange(0, 14))])
        # the product respects folding modulo x^p - 1
        rf = cyclic_fold(f.coeffs, p)
        assert cyclic_fold(rf, p) == rf
        lhs = cyclic_fold((f * g).coeffs, p)
        rhs = cyclic_fold((IntPolynomial(rf) * IntPolynomial(cyclic_fold(g.coeffs, p))).coeffs, p)
        assert lhs == rhs


def test_eval_multiplicative():
    rng = random.Random(5)
    for _ in range(200):
        f = IntPolynomial([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 8))])
        g = IntPolynomial([rng.randrange(-5, 6) for _ in range(rng.randrange(0, 8))])
        a = rng.randrange(-4, 5)
        assert value_at((f * g).coeffs, a) == value_at(f.coeffs, a) * value_at(g.coeffs, a)
