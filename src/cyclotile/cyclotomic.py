"""Cyclotomic polynomials and the cyclotomic divisor spectrum of a mask.

For n > 1 the n-th cyclotomic polynomial is the Moebius product
Phi_n = prod over e | n of (1 - x^e)^mu(n/e). Read as a power series
truncated at some length, such a product is built by _mobius_series:
multiplying by 1 - x^e is a descending pass a[i] -= a[i - e], and
dividing by it, that is multiplying by 1 + x^e + x^2e + ..., a running
sum along each residue class mod e. For squarefree n the length is
phi(n) + 1, so no intermediate is longer than the result. Any other n
reduces to its radical, Phi_n(x) = Phi_rad(n)(x^(n / rad(n))), so only
the coefficients of the squarefree case are spread out, and
Phi_1 = x - 1. Everything stays in Z[x] with no floating point anywhere
(Arnold and Monagan, Calculating cyclotomic polynomials, Math. Comp.
2011).

The same series gives the multitiling witness. With d the product of
the cyclotomic divisors Phi_n of a mask, (x^P - 1) / ((x - 1) d) has
degree below P, so it is the power series of (1 - x)^-1 times each
Phi_n^-1, truncated at length P (DivisorSpectrum.cofactor). No
polynomial is multiplied or divided.

The divisor spectrum needs none of these polynomials. A mask on Z/PZ
comes as its P values, so P is their number. Take F the mask
folded modulo x^n - 1, p_1 < ... < p_r the primes of n, s = n/p_r and G
= F (x^(n/p_1) - 1) ... (x^(n/p_(r-1)) - 1). G (x^s - 1) vanishes at each
n-th root of unity that is not primitive, so, x^n - 1 being squarefree,
it is zero modulo x^n - 1 exactly when Phi_n divides F (Lam and Leung,
J. Algebra 2000); and that says G has cyclic period s, which as s | n is
G[s:] == G[:-s]. So Phi_n | F takes r - 1 shift-and-subtract passes and
one comparison, and no pass at a prime-power n. The walk's steps depend
on P alone, so they are built once per P, from P's one factorization,
and cached. cyclotomic_divides, by long division, stays as the direct test.
"""

import functools
import math
from collections.abc import Sequence
from itertools import accumulate
from operator import add, sub

import cyclotile  # loads polyring on first use of IntPolynomial: the spectrum needs no polynomial

from .arith import factorize
from .errors import InputTooLarge
from .record import Record

MAX_DEGREE = 131_072  # 2^17: Phi_n of a larger degree is refused before anything is allocated


@functools.lru_cache(maxsize=128)
def cyclotomic(n: int) -> "IntPolynomial":
    """The n-th cyclotomic polynomial.

    Raises InputTooLarge when its degree phi(n) exceeds MAX_DEGREE.
    Memoized for the 128 most recently used n. The cache is written once
    per key, so concurrent readers only ever observe finished values.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return cyclotile.IntPolynomial([-1, 1])
    primes = [p for p, _ in factorize(n)]
    radical = math.prod(primes)
    top = n // radical * math.prod(p - 1 for p in primes)  # phi(n), the degree
    if top > MAX_DEGREE:
        raise InputTooLarge("the %d-th cyclotomic polynomial has degree %d, above the cap of %d"
                            % (n, top, MAX_DEGREE))
    if radical < n:
        base = cyclotomic(radical).coeffs
        spread = [0] * (top + 1)
        spread[::n // radical] = base
        return cyclotile.IntPolynomial(spread)
    return cyclotile.IntPolynomial(_mobius_series(dict(_mobius_exponents(n, primes)), top + 1))


def _mobius_exponents(n: int, primes: list[int]) -> list[tuple[int, int]]:
    """The pairs (n / s, mu(s)) over the squarefree divisors s of n, whose primes are given.

    Phi_n is the product of (1 - x^e)^a over these pairs (e, a) for n > 1.
    """
    terms = [(n, 1)]
    for p in primes:
        terms += [(e // p, -a) for e, a in terms]
    return terms


def _mobius_series(exponents: dict[int, int], length: int) -> list[int]:
    """The product of (1 - x^e)^a over exponents {e: a}, as a power series mod x^length.

    A factor with a > 0 is a descending passes series[i] -= series[i - e],
    and one with a < 0 is -a passes of running sums along every residue
    class mod e. The multiplying factors go first. A factor with
    e >= length acts beyond the series and is skipped.
    """
    series = [1] + [0] * (length - 1)
    for e, a in sorted(exponents.items(), key=lambda item: -item[1]):
        if e >= length:
            continue
        for _ in range(a):
            series[e:] = map(sub, series[e:], series[:length - e])
        for _ in range(-a):
            for r in range(e):
                series[r::e] = accumulate(series[r::e])
    return series


def cyclotomic_divides(n: int, f: "IntPolynomial") -> bool:
    """Whether the n-th cyclotomic polynomial divides f in Z[x]. f must be nonzero."""
    if f.is_zero():
        raise ValueError("divisibility test needs a nonzero polynomial")
    _, rem = cyclotile.poly_divmod(f, cyclotomic(n))
    return rem.is_zero()


class DivisorSpectrum(Record):
    """Which cyclotomic polynomials with index dividing P divide a given mask.

    primes are the distinct primes of P, ascending, and divisors the n | P
    whose Phi_n divides the mask; the prime-power part is read off both.
    """

    __slots__ = ("modulus", "primes", "divisors")

    @property
    def prime_power_subset(self) -> frozenset[int]:
        """The divisors p^j, j >= 1, of one prime p of P: the Phi_{p^j} of the spectrum."""
        return frozenset([p**j for p in self.primes for j in range(1, self.modulus.bit_length())
                          if p**j in self.divisors])

    @property
    def prime_power_product(self) -> int:
        """The value at 1 of the prime-power part: the product of p over each Phi_{p^j} in it."""
        product = 1
        for p in self.primes:
            power = p
            while self.modulus % power == 0:
                if power in self.divisors:
                    product *= p
                power *= p
        return product

    def cofactor(self) -> list[int]:
        """(x^P - 1) / ((x - 1) d) as its P coefficients, d the product of the divisors.

        Requires 1 not among the divisors. The quotient has degree below
        P, so it is the power series of (1 - x)^-1 d^-1 truncated there.
        Each Phi_n, n in the spectrum, takes its exponents from the primes
        of P, and all are netted before one _mobius_series.
        """
        exponents = {1: -1}
        for n in self.divisors:
            for e, a in _mobius_exponents(n, [p for p in self.primes if n % p == 0]):
                exponents[e] = exponents.get(e, 0) - a
        return _mobius_series(exponents, self.modulus)


def divisor_spectrum(values: Sequence[int]) -> DivisorSpectrum:
    """Spectrum of the mask f = sum of values[e] x^e on the cyclic group of order P = len(values).

    An empty sequence is a ValueError, and so is a zero mask, which has
    every answer trivially yes. No Phi_n is built and nothing is
    divided. The walk is _spectrum_plan(P), made once per P and reused:
    for each n | P the fold F of f modulo x^n - 1, which Phi_n divides,
    is added up from the fold for n * p on the walk's path, and the
    folds kept hold at most about 2P coefficients. Phi_n | F is the
    periodicity G[s:] == G[:-s] of the module docstring, or f(1) = 0 at
    n = 1: with r primes of n, r - 1 passes and one comparison, so at a
    prime-power P the walk is folds and comparisons with no pass.
    """
    top = tuple(values)
    modulus = len(top)
    if not modulus:
        raise ValueError("a mask needs at least one value")
    total = sum(top)
    if not total and not any(top):
        raise ValueError("mask vanishes modulo x^%d - 1" % modulus)
    primes, plan = _spectrum_plan(modulus)
    hits = [] if total else [1]  # Phi_1 = x - 1 divides f when f(1) = 0
    folds = [top]  # the mask, then the folds on the path from P down to n
    for n, outer, starts, shifts, upper, lower in plan:
        parent = folds[outer]
        fold = parent[:n]
        for start in starts:  # the sum of the parent's blocks of length n
            fold = list(map(add, fold, parent[start:start + n]))
        del folds[outer + 1:]
        folds.append(fold)
        for shift in shifts:  # a[i] <- a[i - shift] - a[i], cyclically
            fold = list(map(sub, fold[-shift:] + fold[:-shift], fold))
        if fold[upper] == fold[lower]:  # G[s:] == G[:-s]
            hits.append(n)
    return DivisorSpectrum(modulus, primes, frozenset(hits))


@functools.lru_cache(maxsize=128)
def _spectrum_plan(modulus: int) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The primes of P and divisor_spectrum's walk, which depend on P alone.

    Dividing the primes of P out in ascending order reaches every n | P,
    n > 1, once, depth first. Its step (n, outer, starts, shifts, upper,
    lower) adds n's fold up from the blocks at starts of the fold at
    index outer of the walk's stack, the mask being index 0, then makes
    the r - 1 passes by shifts and compares the slices upper and lower,
    [s:] and [:-s]. Plans are cached, so P is factorized once while its
    plan stays in the cache.
    """
    primes = tuple(p for p, _ in factorize(modulus))
    plan = []
    pending = [(modulus, 0, 0, modulus)] if modulus > 1 else []  # n = 1 is decided by f(1)
    while pending:  # (n, outer, the first prime to divide out, the parent's length)
        n, outer, first, size = pending.pop()
        shifts = [n // p for p in primes if n % p == 0]
        period = shifts.pop()
        plan.append((n, outer, range(n, size, n), tuple(shifts),
                     slice(period, None), slice(None, -period)))
        pending += [(n // p, outer + 1, i, n) for i, p in enumerate(primes)
                    if i >= first and n % p == 0 and n > p]
    return primes, tuple(plan)
