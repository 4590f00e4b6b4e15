"""Integer tiles on a cyclic group and multitilings by translation.

A tile is an integer-valued function on Z/PZ. A second tile v is an
m-multitiling for u when the cyclic convolution of u and v is the
constant m; when v only takes the values 0 and 1 it is an m-tiling.
Existence of an m-multitiling is decided exactly by a divisibility test
on the mask polynomial of u. The verdict carries the cyclotomic divisor
spectrum it was decided on, and both witnesses are built from that same
spectrum with no polynomial product or division: the general one is a
constant times the spectrum's cofactor, a truncated Moebius series, and
the 0/1 prime-power one is a sum of two digit sets.
"""

from .cyclotomic import divisor_spectrum
from .errors import (
    ModulusMismatch,
    MultiplicityOutOfRange,
    NotExists,
    NotPrimePower,
)
from .record import Record


class Tile(Record):
    """An integer-valued function on Z/PZ, one value per group element."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]):
        values = tuple(values)
        if not values:
            raise ValueError("a tile needs at least one value")
        self._store(values)

    @property
    def modulus(self) -> int:
        return len(self.values)


class ExistenceVerdict(Record):
    """Outcome of the multitiling divisibility test, and the spectrum it was decided on.

    spectrum is the divisor spectrum of the mask, None only for a zero mask.
    """

    __slots__ = ("passed", "spectrum")

    @property
    def exact(self) -> bool:
        """True on a prime-power group order, the one construct_tiling_prime_power accepts."""
        return self.spectrum is not None and len(self.spectrum.primes) == 1

    def __bool__(self) -> bool:
        return self.passed


class MultitilingWitness(Record):
    """A constructed m-multitiling, R times the spectrum's cofactor, and its constant R."""

    __slots__ = ("tile", "multiplier")


def verify_multitiling(u: Tile, v: Tile, multiplicity: int) -> bool:
    """Check by direct convolution that v covers the group m-fold with tile u."""
    if u.modulus != v.modulus:
        raise ModulusMismatch("tiles live on groups of order %d and %d" % (u.modulus, v.modulus))
    p = u.modulus
    for g in range(p):
        total = 0
        for h in range(p):
            total += u.values[(g - h) % p] * v.values[h]
        if total != multiplicity:
            return False
    return True


def multitiling_exists(u: Tile, multiplicity: int) -> ExistenceVerdict:
    """Decide whether any m-multitiling with tile u exists.

    The test is: the mask sum, the sum of u's values, must be nonzero and
    must divide m times the spectrum's prime_power_product, the value at 1
    of its prime-power part. A mask sum of zero is an automatic fail, never
    an error, and an all-zero tile has no spectrum. This is the only place
    the spectrum of a tile is computed, straight from u.values; callers
    reuse verdict.spectrum, and its prime_power_product as the value at 1
    of the product of all divisors whenever the mask sum is nonzero.
    """
    if multiplicity == 0:
        raise ValueError("multiplicity must be nonzero")
    if not any(u.values):
        return ExistenceVerdict(False, None)
    mask_sum = sum(u.values)
    spectrum = divisor_spectrum(u.values)
    passed = mask_sum != 0 and (multiplicity * spectrum.prime_power_product) % mask_sum == 0
    return ExistenceVerdict(passed, spectrum)


def construct_multitiling(u: Tile, multiplicity: int) -> MultitilingWitness:
    """Build an integer m-multitiling whenever the existence test passes.

    The witness tile is R (x^P - 1) / ((x - 1) d), where d is the product
    of the cyclotomic divisors of the mask and the constant multiplier R
    is m * d(1) / masksum. The passing test makes the mask sum nonzero, so
    x - 1 is not among the divisors, d(1) is the spectrum's prime-power
    product, and the quotient is the spectrum's cofactor.
    """
    verdict = multitiling_exists(u, multiplicity)
    if not verdict.passed:
        raise NotExists("no %d-multitiling exists for this tile" % multiplicity)
    constant = multiplicity * verdict.spectrum.prime_power_product // sum(u.values)
    return MultitilingWitness(Tile(tuple(constant * cf for cf in verdict.spectrum.cofactor())),
                              constant)


def construct_tiling_prime_power(u: Tile, multiplicity: int) -> Tile:
    """Build a 0/1 m-tiling on a prime-power group.

    Requires 0 < m <= mask sum, then a prime-power group order, then a
    passing existence test. On P = p^a the product of the cyclotomic divisors Phi_{p^j}, j in S, is the
    indicator of the digit set D_S = {sum over j in S of e_j p^(j-1) :
    0 <= e_j < p}, and (x^P - 1) / ((x - 1) times that product) is the
    indicator of D_T for the other exponents T. The witness takes the
    lowest m * p^|S| / masksum elements s of D_S and puts a 1 at every
    s + t with t in D_T; base-p digits at distinct places never carry,
    so it is 0/1 with no product and no division (Coven and Meyerowitz,
    Tiling the integers with translates of one finite set, J. Algebra 1999).
    """
    mask_sum = sum(u.values)
    if multiplicity <= 0 or multiplicity > mask_sum:
        raise MultiplicityOutOfRange("need 0 < m <= %d, got m = %d" % (mask_sum, multiplicity))
    verdict = multitiling_exists(u, multiplicity)
    if not verdict.exact:
        raise NotPrimePower("group order %d is not a prime power" % u.modulus)
    if not verdict.passed:
        raise NotExists("no %d-multitiling exists for this tile" % multiplicity)
    (base,) = verdict.spectrum.primes
    chosen_places, other_places = [], []  # p^(j-1) for each j, split by Phi_{p^j} dividing
    place = 1
    while place < u.modulus:
        divides = place * base in verdict.spectrum.divisors
        (chosen_places if divides else other_places).append(place)
        place *= base
    chosen = _digit_set(base, chosen_places)
    count = multiplicity * len(chosen) // mask_sum  # |D_S| = p^|S|, the prime-power product
    if count > len(chosen):
        raise AssertionError("the multiplier needs %d of the %d elements of the digit set"
                             % (count, len(chosen)))
    selected = chosen[:count]
    values = [0] * u.modulus
    for t in _digit_set(base, other_places):
        for s in selected:
            values[s + t] += 1
    tile = Tile(tuple(values))
    if any(value not in (0, 1) for value in tile.values):
        raise AssertionError("constructed witness is not a 0/1 tile")
    return tile


def _digit_set(base: int, places: list[int]) -> list[int]:
    """Every sum of e * place, 0 <= e < base, over the ascending places, ascending.

    Each place exceeds the largest sum of the places before it, so the
    list comes out sorted and has no repeats.
    """
    digits = [0]
    for place in places:
        digits = [d + e * place for e in range(base) for d in digits]
    return digits
