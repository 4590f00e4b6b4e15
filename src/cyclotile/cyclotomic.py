"""Cyclotomic polynomials and the cyclotomic divisor spectrum of a mask.

For squarefree n > 1 the n-th cyclotomic polynomial is the Moebius
product Phi_n = prod over d | n of (1 - x^d)^mu(n/d), read as a power
series truncated at degree phi(n), the degree of Phi_n. Multiplying by
1 - x^d is a descending pass a[i] -= a[i - d], and dividing by it, that
is multiplying by 1 + x^d + x^2d + ..., an ascending pass a[i] += a[i - d];
no intermediate is longer than the result. Any other n reduces to its
radical, Phi_n(x) = Phi_rad(n)(x^(n / rad(n))), so only the coefficients
of the squarefree case are spread out, and Phi_1 = x - 1. Everything
stays in Z[x] with no floating point anywhere (Arnold and Monagan,
Calculating cyclotomic polynomials, Math. Comp. 2011).

The divisor spectrum needs none of these polynomials: whether Phi_n
divides a mask is decided on the mask's fold modulo x^n - 1 by cyclic
shifts and subtractions alone. cyclotomic_divides, by long division,
stays as the direct test.
"""

from __future__ import annotations

import functools
import math
from operator import add, sub

from .arith import divisors, factorize, prime_power_base
from .errors import InputTooLarge, ZeroMask
from .polyring import IntPolynomial, poly_divmod, reduce_mod_cyclic
from .record import Record

MAX_DEGREE = 131_072  # 2^17: Phi_n of a larger degree is refused before anything is allocated


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial.

    Raises InputTooLarge when its degree phi(n) exceeds MAX_DEGREE.
    Memoized; the cache is written once per key, so concurrent readers
    only ever observe finished values.
    """
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
    divs = [d for d in divisors(n) if d <= top]  # factors with d > phi(n) act beyond it
    # mu(n/d) = -1 exactly when n/d has an odd number of prime factors
    negative = {d for d in divs if len(factorize(n // d)) % 2}
    coeffs = [1] + [0] * top
    for d in divs:
        if d not in negative:
            for i in range(top, d - 1, -1):
                coeffs[i] -= coeffs[i - d]
    for d in divs:
        if d in negative:
            for i in range(d, top + 1):
                coeffs[i] += coeffs[i - d]
    return IntPolynomial(coeffs)


def cyclotomic_divides(n: int, f: IntPolynomial) -> bool:
    """Whether the n-th cyclotomic polynomial divides f in Z[x]. f must be nonzero."""
    if f.is_zero():
        raise ValueError("divisibility test needs a nonzero polynomial")
    _, rem = poly_divmod(f, cyclotomic(n))
    return rem.is_zero()


class DivisorSpectrum(Record):
    """Which cyclotomic polynomials with index dividing P divide a given mask."""

    __slots__ = ("modulus", "divisors", "prime_power_subset")

    def __init__(self, modulus: int, divisors: frozenset[int],
                 prime_power_subset: frozenset[int]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "prime_power_subset", prime_power_subset)

    def divisor_product(self) -> IntPolynomial:
        """Product of the cyclotomic divisors, a unit-free divisor of x^P - 1."""
        poly = IntPolynomial([1])
        for n in sorted(self.divisors):
            poly = poly * cyclotomic(n)
        return poly

    def divisor_product_at_one(self) -> int:
        """Value at 1 of divisor_product, in closed form.

        Phi_1(1) = 0, Phi_{p^e}(1) = p and Phi_n(1) = 1 for every other n,
        so no polynomial product is needed.
        """
        return 0 if 1 in self.divisors else prime_power_product_at_one(self)


def divisor_spectrum(f: IntPolynomial, modulus: int) -> DivisorSpectrum:
    """Spectrum of f on the cyclic group of the given order.

    f is reduced modulo x^P - 1 first; a mask that reduces to zero has
    every answer trivially yes and is rejected as ZeroMask. No Phi_n is
    built and nothing is divided. For each n | P the fold of f modulo
    x^n - 1 (which Phi_n divides, so no answer changes) is tested by
    _vanishes_at_primitive_roots, and the fold for n comes from the fold
    for n * p by adding its p blocks of length n. Dividing the primes of
    P out in ascending order reaches every divisor exactly once, so the
    work is at most sigma(P) times one more than the number of primes of
    P coefficient operations, and the folds kept at any time hold at
    most about 2P coefficients.
    """
    reduced = reduce_mod_cyclic(f, modulus)
    if reduced.is_zero():
        raise ZeroMask("mask vanishes modulo x^%d - 1" % modulus)
    primes = [p for p, _ in factorize(modulus)]
    hits, prime_powers = [], []
    top = list(reduced.coeffs) + [0] * (modulus - len(reduced.coeffs))
    # (n, the fold that n's fold is added up from, index of the last prime divided out)
    pending = [(modulus, top, 0)]
    while pending:
        n, outer, first = pending.pop()
        fold = outer[:n]
        for start in range(n, len(outer), n):
            fold = list(map(add, fold, outer[start:start + n]))
        own = [p for p in primes if n % p == 0]
        if _vanishes_at_primitive_roots(fold, own):
            hits.append(n)
            if len(own) == 1:
                prime_powers.append(n)
        # divide out primes from the last one divided out onwards, never an earlier one
        pending.extend((n // primes[i], fold, i)
                       for i in range(first, len(primes)) if n % primes[i] == 0)
    return DivisorSpectrum(
        modulus=modulus,
        divisors=frozenset(hits),
        prime_power_subset=frozenset(prime_powers),
    )


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


def prime_power_product_at_one(spectrum: DivisorSpectrum) -> int:
    """Value at 1 of the product over the prime-power part of the spectrum.

    Each cyclotomic polynomial with prime-power index p^e contributes p;
    an empty subset gives 1.
    """
    value = 1
    for n in spectrum.prime_power_subset:
        value *= prime_power_base(n)
    return value
