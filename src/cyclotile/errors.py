"""Exception types shared across the package."""


class CyclotileError(Exception):
    """Base class for every error this package raises on purpose."""


class InexactDivision(CyclotileError):
    """Polynomial division did not come out exact over the integers."""


class ZeroMask(CyclotileError):
    """The mask polynomial vanishes modulo x^P - 1, so its spectrum is undefined."""


class ModulusMismatch(CyclotileError):
    """Two objects that must live on the same cyclic group do not."""


class NotZeroOne(CyclotileError):
    """A tile expected to take only the values 0 and 1 does not."""


class NotExists(CyclotileError):
    """The requested multitiling fails the divisibility test, so none exists."""


class NotPrimePower(CyclotileError):
    """The group order is not a prime power."""


class MultiplicityOutOfRange(CyclotileError):
    """The multiplicity must satisfy 0 < m <= mask sum for this construction."""


class Inadmissible(CyclotileError):
    """The parameter triple violates the admissibility inequality."""

    def __init__(self, verdict):
        super().__init__("parameters are inadmissible: %s" % (verdict,))
        self.verdict = verdict


class SearchSpaceTooLarge(CyclotileError):
    """Exhaustive enumeration was refused because 2^P is out of reach."""


class InputTooLarge(CyclotileError):
    """The input is beyond the size this package decides exactly or within bounded work."""
