"""Dense integer-coefficient polynomials with exact arithmetic.

Coefficients are Python ints stored in ascending degree order, so every
value is exact at any size. The canonical form never has a trailing zero,
so the zero polynomial is the empty tuple. A product is one big-int
product by Kronecker substitution, convolve, whose digits go in and out
through int.to_bytes. No library path multiplies polynomials; products
serve callers of IntPolynomial and the tests.
"""

from .record import Record


class IntPolynomial(Record):
    """An element of Z[x] in dense ascending-coefficient form."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._store(tuple(coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([other * cf for cf in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__


def convolve(a, b) -> list[int]:
    """Exact linear convolution of two integer sequences, by one big-int product.

    Kronecker substitution: each sequence is read as the digits of an
    integer in base 2^(8w), with w bytes enough that no product digit
    overflows, so the digits of the product are the convolution. Digits
    go in and out in two's complement; flipping the top bit of each turns
    that into an offset of half the base, which one subtraction (in) or
    addition (out) of the same constant removes.
    """
    if not a or not b:
        return []
    n = len(a) + len(b) - 1
    # every |entry| and every |product digit| is at most sum|a| * sum|b|
    bound = (sum(map(abs, a)) or 1) * (sum(map(abs, b)) or 1)
    width = 1 << max(0, bound.bit_length().bit_length() - 3)  # 2^(8w - 1) > bound
    top = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")  # top bit of n digits
    product = 1
    for seq in (a, b):
        data = b"".join(x.to_bytes(width, "little", signed=True) for x in seq)
        flip = top >> (8 * width * (n - len(seq)))
        product *= (int.from_bytes(data, "little") ^ flip) - flip
    data = ((product + top) ^ top).to_bytes(width * n, "little")
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, width * n, width)]


def poly_divmod(f: IntPolynomial, g: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Quotient and remainder of f by a monic g over Z[x].

    Each elimination step touches only the nonzero coefficients of g, so
    dividing by a sparse g such as x^d - 1 costs its number of terms per
    step. As g is monic, each quotient coefficient is the remainder's
    leading coefficient. A g with another leading coefficient is a
    ValueError, and the zero polynomial a ZeroDivisionError.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if g.coeffs[-1] != 1:
        raise ValueError("divisor must be monic, not of leading coefficient %d" % g.coeffs[-1])
    if f.is_zero() or len(f.coeffs) < len(g.coeffs):
        return IntPolynomial(), f
    rem = list(f.coeffs)
    shift = len(g.coeffs) - 1
    # only the nonzero lower terms of g; the leading one cancels rem[i], which is not read again
    terms = [(j, gc) for j, gc in enumerate(g.coeffs[:shift]) if gc]
    quot = [0] * (len(rem) - shift)
    for i in range(len(rem) - 1, shift - 1, -1):
        q = rem[i]
        if q == 0:
            continue
        base = i - shift
        quot[base] = q
        for j, gc in terms:
            rem[base + j] -= q * gc
    return IntPolynomial(quot), IntPolynomial(rem[:shift])
