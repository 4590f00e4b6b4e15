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
"""

from __future__ import annotations

import functools
import math

from .arith import divisors, factorize, is_prime_power, prime_power_base
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

    f is reduced modulo x^P - 1 first, and modulo x^n - 1 before each test
    of Phi_n, which cannot change any answer since Phi_n divides x^n - 1;
    a fold that vanishes is divisible. A mask that reduces to zero modulo
    x^P - 1 has every answer trivially yes and is rejected as ZeroMask.
    """
    reduced = reduce_mod_cyclic(f, modulus)
    if reduced.is_zero():
        raise ZeroMask("mask vanishes modulo x^%d - 1" % modulus)
    folds = ((n, reduce_mod_cyclic(reduced, n)) for n in divisors(modulus))
    hits = frozenset(n for n, fold in folds if fold.is_zero() or cyclotomic_divides(n, fold))
    return DivisorSpectrum(
        modulus=modulus,
        divisors=hits,
        prime_power_subset=frozenset(n for n in hits if is_prime_power(n)),
    )


def prime_power_product_at_one(spectrum: DivisorSpectrum) -> int:
    """Value at 1 of the product over the prime-power part of the spectrum.

    Each cyclotomic polynomial with prime-power index p^e contributes p;
    an empty subset gives 1.
    """
    value = 1
    for n in spectrum.prime_power_subset:
        value *= prime_power_base(n)
    return value
