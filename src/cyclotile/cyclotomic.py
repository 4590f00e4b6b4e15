"""Cyclotomic polynomials and the cyclotomic divisor spectrum of a mask.

The n-th cyclotomic polynomial comes from the Moebius product
Phi_n = prod over d | n of (x^d - 1)^mu(n/d). For squarefree n the
factors with mu(n/d) = +1 are multiplied together and the quotient by
each factor with mu(n/d) = -1 is taken by exact division, which is two
nonzero terms per step for a binomial divisor. Any other n reduces to
its radical, Phi_n(x) = Phi_rad(n)(x^(n / rad(n))), so only the
coefficients of the squarefree case are spread out. Everything stays in
Z[x] with no floating point anywhere (Arnold and Monagan, Calculating
cyclotomic polynomials, Math. Comp. 2011).
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .arith import divisors, factorize, is_prime_power, prime_power_base
from .errors import ZeroMask
from .polyring import (
    IntPolynomial,
    poly_divmod,
    poly_exact_div,
    power_minus_one,
    reduce_mod_cyclic,
)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """The n-th cyclotomic polynomial.

    Memoized; the cache is written once per key, so concurrent readers
    only ever observe finished values.
    """
    if n < 1:
        raise ValueError("n must be positive")
    radical = math.prod(p for p, _ in factorize(n))
    if radical < n:
        base = cyclotomic(radical).coeffs
        spread = [0] * ((len(base) - 1) * (n // radical) + 1)
        spread[::n // radical] = base
        return IntPolynomial(spread)
    # n squarefree: mu(n/d) = -1 exactly when n/d has an odd number of prime factors
    divs = divisors(n)
    negative = {d for d in divs if len(factorize(n // d)) % 2}
    poly = IntPolynomial([1])
    for d in divs:
        if d not in negative:
            poly = poly * power_minus_one(d)
    for d in reversed(divs):  # largest first, so later divisions walk shorter dividends
        if d in negative:
            poly = poly_exact_div(poly, power_minus_one(d))
    return poly


def cyclotomic_divides(n: int, f: IntPolynomial) -> bool:
    """Whether the n-th cyclotomic polynomial divides f in Z[x]. f must be nonzero."""
    if f.is_zero():
        raise ValueError("divisibility test needs a nonzero polynomial")
    _, rem = poly_divmod(f, cyclotomic(n))
    return rem.is_zero()


@dataclasses.dataclass(frozen=True)
class DivisorSpectrum:
    """Which cyclotomic polynomials with index dividing P divide a given mask."""

    modulus: int
    divisors: frozenset[int]
    prime_power_subset: frozenset[int]

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
