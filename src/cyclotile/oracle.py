"""Exhaustive search over colourings and 0/1 tilings at small group orders.

This is the ground truth the algebraic machinery is tested against: no
cleverness, just enumeration of the 2^P states in a fixed order. A state
is the integer whose bit g gives the colour (or tile value) at vertex g,
vertex 0 in the least significant bit, Black encoded as 1. The census
visits every state, one at a time, with a popcount per vertex and
neighbour layer. Both searches look for the m-fold covers of a tile, as a
colouring is perfect exactly when its black indicator is a c-tiling of
the structured tile. They visit only the states with the one number of
ones that a counting argument leaves possible, in the same order, in
blocks of 2^BLOCK_BITS states that share their high bits: one block is
classified with a few big-int operations per vertex, since each vertex's
sum over the low bits is counted once per call into a few bit planes
over the block's states. Every count is a direct weighted sum of state
bits, with no convolution and no algebra, and every hit is confirmed by
the naive graph-side or tile-side check: the tile side checks the hit's
mass, then sums each row of the convolution over the hit's ones. A hit's
colour string and 0/1 tile are read off one binary string of its mask.
"""

import collections
import functools

import cyclotile  # loads tiling on first use: the colouring searches need no tile algebra

from .coloring import BLACK, WHITE, CirculantSpec, Coloring, Tile, is_perfect_coloring, structured_tile
from .errors import InputTooLarge
from .record import Record

MAX_EXHAUSTIVE_ORDER = 24
# a limited colouring search refuses a larger P before building anything: past it the
# rows grow with P and a counter position (up to 2^P) would no longer print in decimal
MAX_LIMITED_ORDER = 2**12
# a search classifies the 2^BLOCK_BITS states that share their high bits at once; wider
# blocks cost more per table entry, narrower ones more Python steps: 10-13 measured level
# within noise at P 14-16, and 12-13 fastest for a limited search at P = 40
BLOCK_BITS = 12


class SearchReport(Record):
    """The hits of search_colorings, in counter order, and how far the counter got.

    states_examined is the counter position reached: the hit mask + 1
    when the limit stopped the search, 2^P when it ran to the end
    (exhausted). It is not the number of states classified, since only
    the states of the possible weight class are.
    """

    __slots__ = ("found", "exhausted", "states_examined")


# a state's binary digits, vertex 0's last, read as colours
_COLOR_OF_DIGIT = str.maketrans("10", BLACK + WHITE)


def _colors_of(mask: int, modulus: int) -> str:
    return format(mask, "0%db" % modulus)[::-1].translate(_COLOR_OF_DIGIT)


def search_colorings(
    spec: CirculantSpec, b: int, c: int, limit: int | None = None,
    max_states: int = 2**MAX_EXHAUSTIVE_ORDER,
) -> SearchReport:
    """Every (b, c)-perfect colouring of the graph, in counter order.

    A colouring is perfect exactly when its black indicator is a c-tiling
    of structured_tile(spec, b, c), so the hits are that tile's c-covers
    (_covers), each with w = P * c / (b + c) black vertices, as the tile
    sums to b + c. When w is not an integer, or b or c exceeds the 2k
    neighbours a vertex has, no state can match and the report of the
    full sweep is returned without classifying one. With a limit the
    search stops after that many hits and the report says whether the
    enumeration ran to the end. Every hit is confirmed by is_perfect_coloring.

    Each bound raises InputTooLarge. A search that would classify more
    than max_states states names the counter position it reached; the
    default lets every search at P <= MAX_EXHAUSTIVE_ORDER run in full, as
    one weight class there has at most C(24, 12) states. A larger P needs
    a limit, and past MAX_LIMITED_ORDER even a limited search is refused.
    """
    p = spec.modulus
    if p > MAX_EXHAUSTIVE_ORDER and limit is None:
        raise InputTooLarge("2^%d states; pass a limit or stay at P <= %d" % (p, MAX_EXHAUSTIVE_ORDER))
    if p > MAX_LIMITED_ORDER:
        raise InputTooLarge("P = %d is above the %d this oracle searches even with a limit"
                            % (p, MAX_LIMITED_ORDER))
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    if max(b, c) > 2 * spec.k:
        return SearchReport((), True, 1 << p)
    found = []
    examined = 1 << p
    for mask in _covers(structured_tile(spec, b, c), c, max_states):
        found.append(_confirmed(spec, Coloring(_colors_of(mask, p), b, c)))
        if limit is not None and len(found) >= limit:
            examined = mask + 1
            break
    return SearchReport(tuple(found), examined == 1 << p, examined)


def search_tilings(u: Tile, m: int) -> list[Tile]:
    """Every 0/1 tile that covers the group m-fold with tile u, in counter order.

    m = 0 is a ValueError, as in multitiling_exists. The masks come from
    _covers, bounded by 2^MAX_EXHAUSTIVE_ORDER states (never reached at
    P <= MAX_EXHAUSTIVE_ORDER); only a hit is built as a Tile, and
    verify_multitiling, the direct convolution, confirms each one.
    """
    p = u.modulus
    if p > MAX_EXHAUSTIVE_ORDER:
        raise InputTooLarge("2^%d states is more than this oracle will try" % p)
    if m == 0:
        raise ValueError("multiplicity must be nonzero")
    digits = "0%db" % p
    out = []
    for mask in _covers(u, m, 2**MAX_EXHAUSTIVE_ORDER):
        v = Tile(tuple(map(int, format(mask, digits)[::-1])))
        if not cyclotile.verify_multitiling(u, v, m):
            raise AssertionError("oracle cover count disagrees with the direct convolution")
        out.append(v)
    return out


def _covers(u: Tile, m: int, max_states: int):
    """The P-bit masks v, ascending, that cover every vertex exactly m != 0 times with tile u.

    Summing the cover over the group gives sum(u) * sum(v) = P * m, so
    only the masks with w = P * m / sum(u) ones are classified, at most
    max_states of them; a w that is not an integer in [0, P] leaves
    nothing to classify. A mask v covers vertex g with the sum of
    u(g - h) over the h in v, so the block walk classifies the masks
    with weight u(g - h) on bit h at vertex g and target m everywhere.
    """
    p = u.modulus
    u_sum = sum(u.values)
    if u_sum == 0 or p * m % u_sum or not 0 <= p * m // u_sum <= p:
        return
    yield from _walk(u.values, m, p * m // u_sum, max_states)


def _planes(row, full: int, bits: tuple[int, ...]) -> tuple[list[int], int]:
    """The block states' weighted low-bit sums, as bit planes and an offset.

    For the (h, a) in row the sum over the block's states x is
    S(x) = sum of a * x_h. Plane j holds the states whose S + offset has
    bit j set, so the states with S = t are one AND of each plane or its
    complement. A term adds a's set bits, each one ripple-carry add of
    the states with bit h set (bits[h]); a negative a adds |a| times the
    states with bit h clear and moves the offset by |a|.
    """
    planes: list[int] = []
    offset = 0
    for h, a in row:
        addend = bits[h]
        if a < 0:
            addend ^= full
            offset -= a
            a = -a
        i = 0  # the plane a's lowest bit adds into
        while a:
            if a & 1:
                if len(planes) < i:
                    planes += [0] * (i - len(planes))
                carry = addend
                j = i
                while carry:
                    if j == len(planes):
                        planes.append(carry)
                        break
                    plane = planes[j]
                    planes[j] = plane ^ carry
                    carry &= plane
                    j += 1
            a >>= 1
            i += 1
    return planes, offset


def _level(planes: list[int], full: int, t: int) -> int:
    """The states whose planes spell t in binary: one AND per plane of it or its complement."""
    if t < 0 or t >> len(planes):
        return 0
    states = full
    for j, plane in enumerate(planes):
        states &= plane if t >> j & 1 else full ^ plane
    return states


@functools.cache
def _block(width: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The set of all 2^width low parts, the sets with bit h set, and the sets with j ones."""
    full = (1 << (1 << width)) - 1
    # runs of 2^h zeros then 2^h ones
    bits = tuple(((1 << (1 << h)) - 1 << (1 << h)) * (full // ((1 << (2 << h)) - 1))
                 for h in range(width))
    planes, _ = _planes([(h, 1) for h in range(width)], full, bits)
    return full, bits, tuple(_level(planes, full, j) for j in range(width + 1))


def _walk(values: tuple[int, ...], target: int, weight: int, max_states: int):
    """The P-bit masks v, ascending, with sum over h of values[g - h] * v_h == target at every g.

    Only masks with weight ones are classified.
    The walk takes the 2^B masks that share their high bits P-1 ... B
    (B = BLOCK_BITS) as one block, a set of low parts held as the bits of one int,
    and classifies the whole block at once. The low bits' share of a vertex's
    sum is counted once per call into a few bit planes over the block (_planes).
    Vertex g's row, values[d] on bit (g - d) mod P, is one P-bit set per distinct
    weight a: vertex 0's set, the bits -d mod P with values[d] == a, turned by g.
    Its high part holds the high bits of weight a, and its low bits are the terms
    counted into the planes. In a block the high bits add a constant, so the
    block's masks that satisfy a vertex are the low parts whose planes spell
    target minus that constant. Each vertex keeps those sets of low parts in a
    dict local to the call, filled on a first look-up, and costs a block a
    popcount per distinct high weight, a look-up and an AND. The blocks step
    from one high part to the next whose popcount leaves room for weight ones.
    Raises InputTooLarge after yielding the hits among the first
    max_states masks classified, if there are more to classify.
    """
    p = len(values)
    width = min(BLOCK_BITS, p)
    full, bits, classes = _block(width)
    ring, low_bits = (1 << p) - 1, (1 << width) - 1
    rows: dict[int, int] = {}  # weight a -> vertex 0's row of it: bit -d mod P where values[d] == a
    for d, a in enumerate(values):
        if a:
            rows[a] = rows.get(a, 0) | 1 << (-d % p)
    vertices = []
    for g in range(p):
        groups = []  # (a, the high bits of weight a)
        low = []  # (h, a) for each low bit h of weight a
        for a, row in rows.items():
            row = (row << g | row >> (p - g)) & ring  # vertex g's row is vertex 0's turned by g
            if row >> width:
                groups.append((a, row >> width))
            row &= low_bits
            while row:
                bit = row & -row
                low.append((bit.bit_length() - 1, a))
                row ^= bit
        planes, offset = _planes(low, full, bits)
        # high total -> the low parts meeting the target with it
        vertices.append((groups, planes, target + offset, {}))
    blocks = 1 << (p - width)
    classified = 0
    high = 0
    while high < blocks:
        ones = high.bit_count()
        if ones > weight:  # the next high part with fewer ones
            high += high & -high
            continue
        if ones + width < weight:  # the next high part with more ones
            # set the lowest weight - width - ones bits at once: they are clear, since
            # the walk gets here only from high = 0 or by a carry out of a high part
            # with at least weight - width ones, which clears more low bits than the
            # ones it removes
            high |= (1 << (weight - width - ones)) - 1
            continue
        acc = classes[weight - ones]
        base = high << width
        stop = None
        classified += acc.bit_count()
        if classified > max_states:
            rest = acc
            for _ in range(acc.bit_count() - (classified - max_states)):
                rest &= rest - 1
            stop = rest & -rest
            acc &= stop - 1
        for groups, planes, level, table in vertices:
            total = 0
            for a, group in groups:
                total += a * (high & group).bit_count()
            states = table.get(total)
            if states is None:
                states = table[total] = _level(planes, full, level - total)
            acc &= states
            if not acc:
                break
        while acc:
            low = acc & -acc
            yield base | (low.bit_length() - 1)
            acc ^= low
        if stop is not None:
            raise InputTooLarge(
                "classified %d states and reached counter position %d of 2^%d;"
                " raise max_states to go further" % (max_states, base | (stop.bit_length() - 1), p))
        high += 1


def _confirmed(spec: CirculantSpec, col: Coloring) -> Coloring:
    if not is_perfect_coloring(spec, col):
        raise AssertionError("oracle classification disagrees with the direct check")
    return col


def _classified(spec: CirculantSpec, masks):
    """(mask, (b, c)) for every state among masks perfect for some positive (b, c), in order.

    A colour vector determines the only (b, c) it could be perfect for
    (the common white-neighbour count of its black vertices and the
    common black-neighbour count of its white ones). This is the naive
    reference count, vertex by vertex on bit masks, independent of the
    convolution behind is_perfect_coloring.
    """
    p = spec.modulus
    # each neighbour multiset as bit masks: layer j holds the neighbours met more than j times
    counts = [collections.Counter(spec.neighbors(g)) for g in range(p)]
    layers = [[sum(1 << h for h, m in c.items() if m > j) for j in range(max(c.values()))]
              for c in counts]
    degree = 2 * spec.k
    for mask in masks:
        seen = {}  # colour bit -> the white-neighbour count every vertex of that colour shares
        for g in range(p):
            whites = degree
            for layer in layers[g]:
                whites -= (mask & layer).bit_count()
            if seen.setdefault((mask >> g) & 1, whites) != whites:
                break
        else:
            if len(seen) == 2 and seen[1] >= 1 and degree - seen[0] >= 1:
                yield mask, (seen[1], degree - seen[0])


def census_colorings(spec: CirculantSpec) -> dict[tuple[int, int], list[Coloring]]:
    """All perfect colourings of the graph, bucketed by their (b, c), in one pass.

    One sweep of the classifier over the 2^P states sorts everything;
    every hit is confirmed with is_perfect_coloring before it is
    reported, and the buckets keep enumeration order.
    """
    p = spec.modulus
    if p > MAX_EXHAUSTIVE_ORDER:
        raise InputTooLarge("2^%d states is more than this oracle will try" % p)
    census: dict[tuple[int, int], list[Coloring]] = {}
    for mask, (b, c) in _classified(spec, range(1 << p)):
        census.setdefault((b, c), []).append(_confirmed(spec, Coloring(_colors_of(mask, p), b, c)))
    return dict(sorted(census.items()))
