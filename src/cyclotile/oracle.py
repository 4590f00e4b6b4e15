"""Exhaustive search over colourings and 0/1 tilings at small group orders.

This is the ground truth the algebraic machinery is tested against: no
cleverness, just enumeration of the 2^P states in a fixed order. A state
is the integer whose bit g gives the colour (or tile value) at vertex g,
vertex 0 in the least significant bit, Black encoded as 1. The census
visits every state; a search visits only the states with the one number
of ones that a counting argument leaves possible, in the same order.
Every classifier counts directly on bit masks, a popcount per vertex and
neighbour layer (or tile value), with no convolution and no algebra; its
hits are confirmed by the naive graph-side or tile-side check.
"""

from __future__ import annotations

import collections
import itertools

from .coloring import BLACK, WHITE, CirculantSpec, Coloring, is_perfect_coloring
from .errors import SearchSpaceTooLarge
from .record import Record
from .tiling import Tile, verify_multitiling

MAX_EXHAUSTIVE_ORDER = 24


class SearchReport(Record):
    """The hits of search_colorings, in counter order, and how far the counter got.

    states_examined is the counter position reached: the hit mask + 1
    when the limit stopped the search, 2^P when it ran to the end
    (exhausted). It is not the number of states classified, since only
    the states of the possible weight class are.
    """

    __slots__ = ("spec", "b", "c", "found", "exhausted", "states_examined")

    def __init__(self, spec: CirculantSpec, b: int, c: int, found: tuple[Coloring, ...],
                 exhausted: bool, states_examined: int):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "found", found)
        object.__setattr__(self, "exhausted", exhausted)
        object.__setattr__(self, "states_examined", states_examined)


def _colors_of(mask: int, modulus: int) -> str:
    return "".join(BLACK if (mask >> g) & 1 else WHITE for g in range(modulus))


def search_colorings(
    spec: CirculantSpec, b: int, c: int, limit: int | None = None,
    max_states: int = 2**MAX_EXHAUSTIVE_ORDER,
) -> SearchReport:
    """Every (b, c)-perfect colouring of the graph, in counter order.

    Counting the black-white edges from both ends gives |B| * b = |W| * c,
    so every hit has exactly w = P * c / (b + c) black vertices. Only the
    C(P, w) states of that weight are classified, by the census's
    classifier, in ascending order; when w is not an integer, or b or c
    exceeds the 2k neighbours a vertex has, no state can match and the
    report of the full sweep is returned without classifying one. With a
    limit the search stops after that many hits and the report says
    whether the enumeration ran to the end anyway.

    max_states bounds the work: a search that would classify more states
    than that raises SearchSpaceTooLarge, naming the counter position it
    reached. The default lets every search at P <= MAX_EXHAUSTIVE_ORDER
    run in full, since one weight class there has at most C(24, 12) states.
    """
    p = spec.modulus
    if p > MAX_EXHAUSTIVE_ORDER and limit is None:
        raise SearchSpaceTooLarge("2^%d states; pass a limit or stay at P <= %d"
                                  % (p, MAX_EXHAUSTIVE_ORDER))
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    if max_states < 1:
        raise ValueError("max_states must be positive")
    if max(b, c) > 2 * spec.k or p * c % (b + c):
        return SearchReport(spec, b, c, (), True, 1 << p)
    found = []
    examined = 1 << p
    masks = _masks_of_weight(p, p * c // (b + c))
    for mask, params in _classified(spec, itertools.islice(masks, max_states)):
        if params == (b, c):
            found.append(_confirmed(spec, Coloring(_colors_of(mask, p), b, c)))
            if limit is not None and len(found) >= limit:
                examined = mask + 1
                break
    else:
        unclassified = next(masks, None)
        if unclassified is not None:
            raise SearchSpaceTooLarge(
                "classified %d states and reached counter position %d of 2^%d;"
                " raise max_states to go further" % (max_states, unclassified, p))
    return SearchReport(spec, b, c, tuple(found), examined == 1 << p, examined)


def search_tilings(u: Tile, m: int) -> list[Tile]:
    """Every 0/1 tile that covers the group m-fold with tile u, in counter order.

    Summing the cover over the group gives sum(u) * sum(v) = P * m, so
    only the masks with w = P * m / sum(u) ones are tried. When sum(u) = 0
    and m = 0 every weight qualifies; otherwise a w that is not an integer
    in [0, P] leaves nothing to try. A mask v covers vertex g with
    sum over the values a of u of a * popcount(v & bits), where bits holds
    the h with u(g - h) = a; a mask is dropped at the first vertex whose
    cover is not m. Only a hit is built as a Tile, and verify_multitiling,
    the naive convolution, confirms each one.
    """
    p = u.modulus
    if p > MAX_EXHAUSTIVE_ORDER:
        raise SearchSpaceTooLarge("2^%d states is more than this oracle will try" % p)
    u_sum = sum(u.values)
    if u_sum == 0:
        masks = range(1 << p) if m == 0 else ()
    elif p * m % u_sum or not 0 <= p * m // u_sum <= p:
        masks = ()
    else:
        masks = _masks_of_weight(p, p * m // u_sum)
    # per vertex g, (a, bits of the h with u((g - h) mod P) = a) for each nonzero value a
    rows = []
    for g in range(p):
        by_value: dict[int, int] = {}
        for h in range(p):
            a = u.values[(g - h) % p]
            if a:
                by_value[a] = by_value.get(a, 0) | 1 << h
        rows.append(tuple(by_value.items()))
    out = []
    for mask in masks:
        for row in rows:
            cover = 0
            for a, bits in row:
                cover += a * (mask & bits).bit_count()
            if cover != m:
                break
        else:
            v = Tile(tuple((mask >> g) & 1 for g in range(p)))
            if not verify_multitiling(u, v, m):
                raise AssertionError("oracle cover count disagrees with the direct convolution")
            out.append(v)
    return out


def _masks_of_weight(p: int, w: int):
    """The P-bit masks with exactly w ones, in ascending order, for 0 <= w <= P.

    Gosper's step goes from one mask to the next larger of the same
    weight: the lowest block of ones moves its top bit one place up and
    the rest of the block back down to bit 0.
    """
    if w == 0:
        yield 0
        return
    mask = (1 << w) - 1
    end = 1 << p
    while mask < end:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((ripple ^ mask) >> (low.bit_length() + 1))


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
        raise SearchSpaceTooLarge("2^%d states is more than this oracle will try" % p)
    census: dict[tuple[int, int], list[Coloring]] = {}
    for mask, (b, c) in _classified(spec, range(1 << p)):
        census.setdefault((b, c), []).append(_confirmed(spec, Coloring(_colors_of(mask, p), b, c)))
    return dict(sorted(census.items()))
