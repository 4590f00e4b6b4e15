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

The divisor spectrum needs none of these polynomials: whether Phi_n
divides a mask is decided on the mask's fold modulo x^n - 1 by cyclic
shifts and subtractions alone. cyclotomic_divides, by long division,
stays as the direct test.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from itertools import accumulate
from operator import add, sub

from .arith import factorize
from .errors import InputTooLarge, ZeroMask
from .record import Record

MAX_DEGREE = 131_072  # 2^17: Phi_n of a larger degree is refused before anything is allocated


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial.

    Raises InputTooLarge when its degree phi(n) exceeds MAX_DEGREE.
    Memoized; the cache is written once per key, so concurrent readers
    only ever observe finished values.
    """
    from .polyring import IntPolynomial  # imported on use: the spectrum needs no polynomial

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPolynomial([-1, 1])
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
        return IntPolynomial(spread)
    return IntPolynomial(_mobius_series(dict(_mobius_exponents(n, primes)), top + 1))


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


def cyclotomic_divides(n: int, f: IntPolynomial) -> bool:
    """Whether the n-th cyclotomic polynomial divides f in Z[x]. f must be nonzero."""
    from .polyring import poly_divmod

    if f.is_zero():
        raise ValueError("divisibility test needs a nonzero polynomial")
    _, rem = poly_divmod(f, cyclotomic(n))
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
        return math.prod([p for p in self.primes for n in self.prime_power_subset if n % p == 0])

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


def divisor_spectrum(values: Sequence[int], modulus: int) -> DivisorSpectrum:
    """Spectrum of the mask sum of values[e] x^e on the cyclic group of the given order.

    The mask f is folded modulo x^P - 1 first, by adding its blocks of
    length P, so P values, as a tile has, are only copied. A modulus
    below 1 is a ValueError, and a mask that folds to zero has every
    answer trivially yes and is rejected as ZeroMask. No Phi_n is
    built and nothing is divided. For each n | P the fold of f modulo
    x^n - 1 (which Phi_n divides, so no answer changes) is tested by
    _vanishes_at_primitive_roots, and the fold for n comes from the fold
    for n * p by adding its p blocks of length n. Dividing the primes of
    P out in ascending order reaches every divisor exactly once, so the
    work is at most sigma(P) times one more than the number of primes of
    P coefficient operations, and the folds kept at any time hold at
    most about 2P coefficients.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    top = list(values)
    if len(top) != modulus:
        top = _fold(top + [0] * (-len(top) % modulus), modulus)
    if not any(top):
        raise ZeroMask("mask vanishes modulo x^%d - 1" % modulus)
    primes = tuple(p for p, _ in factorize(modulus))
    hits = []
    # (n, the fold that n's fold is added up from, index of the last prime divided out)
    pending = [(modulus, top, 0)]
    while pending:
        n, outer, first = pending.pop()
        fold = _fold(outer, n)
        if _vanishes_at_primitive_roots(fold, [p for p in primes if n % p == 0]):
            hits.append(n)
        # divide out primes from the last one divided out onwards, never an earlier one
        pending.extend((n // primes[i], fold, i)
                       for i in range(first, len(primes)) if n % primes[i] == 0)
    return DivisorSpectrum(modulus, primes, frozenset(hits))


def _fold(values: list[int], n: int) -> list[int]:
    """values modulo x^n - 1, for a length that n divides: the sum of its blocks of length n."""
    fold = values[:n]
    for start in range(n, len(values), n):
        fold = list(map(add, fold, values[start:start + n]))
    return fold


def _vanishes_at_primitive_roots(fold: list[int], primes: list[int]) -> bool:
    """Whether Phi_n divides the fold F of a mask modulo x^n - 1, n = len(F).

    primes are the primes of n. F is multiplied modulo x^n - 1 by
    x^(n/p) - 1 for each of them, one cyclic shift-and-subtract pass
    a[i] <- a[i - n/p] - a[i] each; that product vanishes at every
    n-th root of unity that is not primitive and at none that is. Since
    x^n - 1 is squarefree, the result is zero exactly when F vanishes at
    every primitive n-th root, that is when Phi_n divides F (Lam and
    Leung, On vanishing sums of roots of unity, J. Algebra 2000).
    """
    if not any(fold):
        return True
    n = len(fold)
    for p in primes:
        shift = n // p
        fold = list(map(sub, fold[-shift:] + fold[:-shift], fold))
    return not any(fold)
