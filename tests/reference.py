"""Plain polynomial helpers that tests compare the library against.

Coefficients are in ascending degree order, as in IntPolynomial.coeffs.
"""


def cyclic_fold(coeffs, modulus):
    """The P coefficients of f modulo x^P - 1: each exponent taken modulo P."""
    out = [0] * modulus
    for e, cf in enumerate(coeffs):
        out[e % modulus] += cf
    return out


def coefficient_sum(a, b):
    """The coefficients of f + g, as long as the longer of the two."""
    out = [0] * max(len(a), len(b))
    for i, cf in enumerate(a):
        out[i] += cf
    for i, cf in enumerate(b):
        out[i] += cf
    return out


def value_at(coeffs, point):
    """f(point), term by term."""
    return sum(cf * point**e for e, cf in enumerate(coeffs))
