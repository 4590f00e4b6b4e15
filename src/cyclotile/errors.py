"""Exception types shared across the package.

A CyclotileError is a negative verdict (Inadmissible, NotExists) or a
refused bound (InputTooLarge). A malformed or out-of-range argument,
a non-monic divisor included, is a plain ValueError.
"""


class CyclotileError(Exception):
    """Base class for every error this package raises on purpose."""


class NotExists(CyclotileError):
    """The requested multitiling fails the divisibility test, so none exists."""


class Inadmissible(CyclotileError):
    """The parameter triple violates the admissibility inequality."""

    def __init__(self, verdict):
        super().__init__("parameters are inadmissible: %s" % (verdict,))
        self.verdict = verdict


class InputTooLarge(CyclotileError):
    """The input is beyond the size this package decides exactly or within bounded work."""
