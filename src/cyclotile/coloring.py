"""Circulant graphs, 2-colourings, integer tiles, and colourings as tilings.

A circulant graph on Z/PZ joins every vertex g to g + l and g - l for
each listed distance l, so each vertex has a neighbour multiset of size
exactly 2k; zero and repeated distances are allowed and contribute loops
and multiple edges. A colouring is perfect with parameters (b, c) when
every black vertex has exactly b white neighbours and every white vertex
exactly c black ones, counted with multiplicity.

The bridge to tilings: colour the support of a 0/1 tile v black. The
colouring is perfect with parameters (b, c) exactly when v is a
c-tiling for the structured tile built from the distances and (b, c),
u = A + (b + c - 2k) at 0, where A counts the jumps +l and -l landing on
each element. The paper writes it x^M (A(x) + b + c - 2k), M the largest
distance; on Z/PZ the factor x^M is a unit that changes no divisor
spectrum and no cover, so it is left out.
"""

from .errors import InputTooLarge
from .record import Record

MAX_MODULUS = 2**20  # structured_tile refuses a larger group order before allocating a tile

BLACK = "B"
WHITE = "W"
# colour bytes to the black indicator; any other byte, such as one of a non-ASCII letter, to 2
_INDICATOR = bytes(1 if byte == ord(BLACK) else 0 if byte == ord(WHITE) else 2 for byte in range(256))


class CirculantSpec(Record):
    """A circulant graph: group order and the multiset of jump distances.

    Distances are kept exactly as given, neither reduced mod P nor
    deduplicated.
    """

    __slots__ = ("modulus", "distances")

    def __init__(self, modulus: int, distances: tuple[int, ...]):
        distances = tuple(distances)
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if not distances:
            raise ValueError("at least one distance is required")
        if any(l < 0 for l in distances):
            raise ValueError("distances must be nonnegative")
        self._store(modulus, distances)

    @property
    def k(self) -> int:
        return len(self.distances)

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        """The size-2k neighbour multiset of a vertex, as residues."""
        p = self.modulus
        out = []
        for l in self.distances:
            out.append((vertex + l) % p)
            out.append((vertex - l) % p)
        return tuple(out)


class Coloring(Record):
    """A 2-colouring of Z/PZ with its intended parameters (b, c).

    Monochromatic vectors are representable; they simply can never pass
    the perfection check while b and c are positive.
    """

    __slots__ = ("colors", "b", "c")

    def __init__(self, colors: str, b: int, c: int):
        if not colors:
            raise ValueError("empty colouring")
        if colors.count(BLACK) + colors.count(WHITE) != len(colors):
            raise ValueError("colors must be a string over B and W")
        if b < 1 or c < 1:
            raise ValueError("parameters b and c must be positive")
        self._store(colors, b, c)

    @property
    def modulus(self) -> int:
        return len(self.colors)


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


def structured_tile(spec: CirculantSpec, b: int, c: int) -> Tile:
    """The tile whose c-tilings are exactly the (b, c)-perfect colourings.

    Value b + c - 2k is added at 0 and 1 at each l mod P and -l mod P,
    accumulating collisions. The central value may be negative when
    b + c < 2k; that is fine. The paper's tile x^M (A(x) + b + c - 2k),
    M the largest distance, is this one rotated by M: on Z/PZ the factor
    x^M is a unit, so the two have the same spectrum and the same covers.
    Raises InputTooLarge when P exceeds MAX_MODULUS.
    """
    p = spec.modulus
    if p > MAX_MODULUS:
        raise InputTooLarge("group order %d is above the cap of %d" % (p, MAX_MODULUS))
    values = [0] * p
    values[0] = b + c - 2 * spec.k
    for l in spec.distances:
        values[l % p] += 1
        values[-l % p] += 1
    return Tile(tuple(values))


def is_perfect_coloring(spec: CirculantSpec, col: Coloring) -> bool:
    """Graph-side check of the perfection condition for the colouring's own (b, c)."""
    return perfect_parameters(spec, col.colors) == (col.b, col.c)


def perfect_parameters(spec: CirculantSpec, colors: str) -> tuple[int, int] | None:
    """The unique (b, c) a colour vector could be perfect for, if any.

    Perfection forces every black vertex to share one white-neighbour
    count b and every white vertex one black-neighbour count c, so a
    vector determines its parameters. The black-neighbour counts are the
    cyclic convolution of the black indicator with the multiset of jumps
    +l and -l. Returns None for monochromatic or inconsistent vectors,
    and when a derived count is zero, since valid parameters are positive.
    """
    p = spec.modulus
    if len(colors) != p:
        raise ValueError("graph on %d vertices, colouring on %d" % (p, len(colors)))
    indicator = colors.encode().translate(_INDICATOR)
    if 2 in indicator:
        raise ValueError("colors must be a string over B and W")
    first_black, first_white = indicator.find(1), indicator.find(0)
    if first_black < 0 or first_white < 0:
        return None  # monochromatic
    # Kronecker substitution: the indicator and the jump counts as integers with one digit per
    # vertex. Digits g and g + P of their product add up to the cyclic count of vertex g, at
    # most 2k, so with digits wide enough for 2k nothing carries and one fold gives the counts
    degree = 2 * spec.k
    width = (degree.bit_length() + 7) // 8  # bytes per digit
    digits = bytearray(width * p)
    digits[::width] = indicator
    blacks = int.from_bytes(digits, "little")
    landings = bytearray(width * p)  # digit g: how many of the 2k jumps from vertex 0 land on g
    for l in spec.distances:
        for i in (width * (l % p), width * (-l % p)):
            while landings[i] == 255:  # carry into the digit's next byte
                landings[i] = 0
                i += 1
            landings[i] += 1
    jumps = int.from_bytes(landings, "little")
    shift, row = 8 * width, 8 * width * p
    product = blacks * jumps
    counts = (product & ((1 << row) - 1)) + (product >> row)
    digit = (1 << shift) - 1
    beta, gamma = counts >> shift * first_black & digit, counts >> shift * first_white & digit
    # perfect only if every vertex has the count of the first vertex of its colour
    ones = ((1 << row) - 1) // digit  # a 1 in every digit
    if counts != gamma * ones + (beta - gamma) * blacks:
        return None
    b, c = degree - beta, gamma
    return (b, c) if b >= 1 and c >= 1 else None


def coloring_to_tiling(col: Coloring) -> Tile:
    """Indicator tile of the black class."""
    return Tile(tuple(1 if ch == BLACK else 0 for ch in col.colors))


def tiling_to_coloring(v: Tile, b: int, c: int) -> Coloring:
    """Colour the support of a 0/1 tile black; inverse of coloring_to_tiling."""
    if any(value not in (0, 1) for value in v.values):
        raise ValueError("tile values must all be 0 or 1")
    return Coloring("".join(BLACK if value else WHITE for value in v.values), b, c)


def build_document(spec: CirculantSpec, b: int, c: int, colors: str | None) -> dict:
    """The interchange document for a colouring or a bare parameter claim."""
    doc = {
        "version": 1,
        "P": spec.modulus,
        "distances": list(spec.distances),
        "b": b,
        "c": c,
    }
    if colors is not None:
        doc["colors"] = colors
    return doc


def parse_document(doc) -> tuple[CirculantSpec, int, int, str | None]:
    """Validate and unpack an interchange document. Raises ValueError when malformed."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != 1:  # true and 1.0 are not version 1
        raise ValueError("unsupported document version")
    for key in ("P", "distances", "b", "c"):
        if key not in doc:
            raise ValueError("missing field %r" % key)
    p, b, c = doc["P"], doc["b"], doc["c"]
    distances = doc["distances"]
    # type(x) is int, not isinstance: JSON true and false load as bool, a subclass of int
    if not all(type(x) is int for x in (p, b, c)):
        raise ValueError("P, b, c must be integers")
    if not isinstance(distances, list) or not all(type(l) is int for l in distances):
        raise ValueError("distances must be a list of integers")
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    spec = CirculantSpec(p, tuple(distances))
    colors = doc.get("colors")
    if colors is not None:
        if not isinstance(colors, str) or len(colors) != p or set(colors) - {BLACK, WHITE}:
            raise ValueError("colors must be a length-P string over B and W")
    return spec, b, c, colors
