"""Graph-side model and the correspondence with 0/1 tilings."""

import itertools
import random
import tracemalloc

import pytest

from cyclotile.coloring import (
    BLACK,
    MAX_MODULUS,
    WHITE,
    CirculantSpec,
    Coloring,
    build_document,
    coloring_to_tiling,
    is_perfect_coloring,
    parse_document,
    perfect_parameters,
    structured_tile,
    tiling_to_coloring,
)
from cyclotile.errors import InputTooLarge
from cyclotile.oracle import search_tilings
from cyclotile.tiling import (
    Tile,
    construct_tiling_prime_power,
    multitiling_exists,
    verify_multitiling,
)
from reference import papers_structured_tile


def test_spec_basic():
    spec = CirculantSpec(4, (1,))
    assert spec.k == 1
    assert spec.neighbors(0) == (1, 3)
    with pytest.raises(ValueError):
        CirculantSpec(4, ())
    with pytest.raises(ValueError):
        CirculantSpec(0, (1,))
    with pytest.raises(ValueError):
        CirculantSpec(4, (-1,))


def test_spec_loops_and_duplicates():
    # a zero distance contributes the vertex itself twice
    spec = CirculantSpec(3, (0,))
    assert spec.neighbors(1) == (1, 1)
    spec2 = CirculantSpec(5, (2, 2))
    assert sorted(spec2.neighbors(0)) == [2, 2, 3, 3]


def test_spec_distances_kept_raw():
    spec = CirculantSpec(4, (5, 1))
    assert spec.distances == (5, 1)
    assert sorted(spec.neighbors(0)) == [1, 1, 3, 3]


def test_coloring_validation():
    col = Coloring("BW", 1, 1)
    assert col.modulus == 2
    with pytest.raises(ValueError):
        Coloring("", 1, 1)
    with pytest.raises(ValueError):
        Coloring("BX", 1, 1)
    with pytest.raises(ValueError):
        Coloring("BW", 0, 1)
    with pytest.raises(ValueError):
        Coloring("BW", 1, -2)


def test_structured_tile_examples():
    assert structured_tile(CirculantSpec(4, (1,)), 1, 1).values == (0, 1, 0, 1)
    assert structured_tile(CirculantSpec(5, (1, 2)), 3, 1).values == (0, 1, 1, 1, 1)
    assert structured_tile(CirculantSpec(3, (0,)), 1, 1).values == (2, 0, 0)


def test_structured_tile_negative_center():
    # b + c < 2k leaves a negative value at position 0
    u = structured_tile(CirculantSpec(7, (1, 2)), 1, 1)
    assert u.values[0] == 1 + 1 - 4
    assert sum(u.values) == 2


def test_structured_tile_is_the_papers_tile_rotated():
    # the paper's tile is x^M times this one, M the largest distance, and x^M is a unit on
    # Z/PZ: the verdict, the spectrum, the covers and the prime-power witness are the same
    rng = random.Random(29)
    features = {"zero": 0, "repeat": 0, "half": 0, "beyond": 0}
    constructed = covered = 0
    for _ in range(400):
        p = rng.randrange(1, 17)
        # distance 0, l = P / 2 when P is even, a distance at least P, and two others
        pool = [0, p // 2, rng.randrange(p, 3 * p)] + [rng.randrange(1, p + 1) for _ in range(2)]
        distances = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 5)))
        features["zero"] += 0 in distances
        features["repeat"] += len(set(distances)) < len(distances)
        features["half"] += p % 2 == 0 and p // 2 in distances
        features["beyond"] += max(distances) >= p
        k = len(distances)
        # half the time b + c divides P, which is when colourings are most often found
        sums = [s for s in range(2, 4 * k + 3) if p % s == 0] or [rng.randrange(2, 4 * k + 3)]
        total = rng.choice(sums) if rng.randrange(2) else rng.randrange(2, 4 * k + 3)
        b = rng.randrange(max(1, total - 2 * k - 1), min(total - 1, 2 * k + 1) + 1)
        c = total - b
        spec = CirculantSpec(p, distances)
        u = structured_tile(spec, b, c)
        reference = Tile(tuple(papers_structured_tile(p, distances, b, c)))
        shift = max(distances)
        assert u.values == tuple(reference.values[(j + shift) % p] for j in range(p)), spec
        verdict, expected = multitiling_exists(u, c), multitiling_exists(reference, c)
        assert (verdict.passed, verdict.spectrum) == (expected.passed, expected.spectrum), spec
        covers = search_tilings(u, c)
        assert covers == search_tilings(reference, c), (spec, b, c)
        covered += bool(covers)
        if verdict.passed and verdict.exact:
            assert construct_tiling_prime_power(u, c) == construct_tiling_prime_power(reference, c)
            constructed += 1
    assert min(features.values()) >= 20, features
    assert covered >= 20 and constructed >= 20, (covered, constructed)


def test_structured_tile_modulus_cap():
    # refused before the tile is allocated: a list of 2^20 + 1 entries alone takes 8 MB
    spec = CirculantSpec(MAX_MODULUS + 1, (1,))
    tracemalloc.start()
    try:
        with pytest.raises(InputTooLarge):
            structured_tile(spec, 1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert structured_tile(CirculantSpec(MAX_MODULUS, (1,)), 1, 1).modulus == MAX_MODULUS


def test_is_perfect_examples():
    assert is_perfect_coloring(CirculantSpec(4, (1,)), Coloring("BBWW", 1, 1))
    assert is_perfect_coloring(CirculantSpec(2, (1,)), Coloring("BW", 2, 2))
    spec3 = CirculantSpec(3, (1,))
    for bits in itertools.product("BW", repeat=3):
        assert not is_perfect_coloring(spec3, Coloring("".join(bits), 1, 1))


def test_is_perfect_modulus_mismatch():
    with pytest.raises(ValueError, match="graph on 4 vertices, colouring on 2"):
        is_perfect_coloring(CirculantSpec(4, (1,)), Coloring("BW", 1, 1))


def test_coloring_to_tiling_examples():
    assert coloring_to_tiling(Coloring("BBWW", 1, 1)).values == (1, 1, 0, 0)
    assert coloring_to_tiling(Coloring("WWW", 1, 1)).values == (0, 0, 0)
    assert coloring_to_tiling(Coloring("BWB", 1, 1)).values == (1, 0, 1)


def test_tiling_to_coloring_examples():
    assert tiling_to_coloring(Tile((1, 1, 0, 0)), 1, 1).colors == "BBWW"
    with pytest.raises(ValueError, match="tile values must all be 0 or 1"):
        tiling_to_coloring(Tile((2, 0, 0)), 1, 1)


def test_roundtrip():
    rng = random.Random(22)
    for _ in range(100):
        p = rng.randrange(1, 12)
        colors = "".join(rng.choice("BW") for _ in range(p))
        col = Coloring(colors, rng.randrange(1, 5), rng.randrange(1, 5))
        back = tiling_to_coloring(coloring_to_tiling(col), col.b, col.c)
        assert back == col


def test_perfect_forces_both_classes():
    # with b, c >= 1 a perfect colouring can never be monochromatic
    rng = random.Random(23)
    for _ in range(200):
        p = rng.randrange(1, 10)
        spec = CirculantSpec(p, (rng.randrange(p),))
        mono = Coloring("B" * p, 1, 1)
        assert not is_perfect_coloring(spec, mono)
        assert not is_perfect_coloring(spec, Coloring("W" * p, 1, 1))


def test_correspondence_with_tilings():
    # perfection on the graph side is exactly the c-tiling property of
    # the black indicator against the structured tile
    for p in range(1, 11):
        dist_sets = [(l,) for l in range(p)] + list(
            itertools.combinations_with_replacement(range(p), 2))
        pair_table = {
            1: [(b, c) for b in range(1, 6) for c in range(1, 6) if b + c <= 6],
            2: [(b, c) for b in range(1, 8) for c in range(1, 8) if b + c <= 8],
        }
        for distances in dist_sets:
            spec = CirculantSpec(p, distances)
            tiles = {
                (b, c): structured_tile(spec, b, c)
                for (b, c) in pair_table[spec.k]
            }
            for mask in range(1 << p):
                colors = "".join(BLACK if (mask >> g) & 1 else WHITE for g in range(p))
                indicator = Tile(tuple((mask >> g) & 1 for g in range(p)))
                # is_perfect_coloring compares these with (b, c); computed once per mask
                parameters = perfect_parameters(spec, colors)
                for (b, c), u in tiles.items():
                    graph_side = parameters == (b, c)
                    tile_side = verify_multitiling(u, indicator, c)
                    assert graph_side == tile_side, (p, distances, b, c, colors)


def test_color_swap_duality():
    rng = random.Random(24)
    swap = {"B": "W", "W": "B"}
    for _ in range(300):
        p = rng.randrange(1, 11)
        k = rng.randrange(1, 3)
        spec = CirculantSpec(p, tuple(rng.randrange(p) for _ in range(k)))
        colors = "".join(rng.choice("BW") for _ in range(p))
        b = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        direct = is_perfect_coloring(spec, Coloring(colors, b, c))
        swapped = "".join(swap[ch] for ch in colors)
        dual = is_perfect_coloring(spec, Coloring(swapped, c, b))
        assert direct == dual


def test_perfect_parameters():
    spec = CirculantSpec(4, (1,))
    assert perfect_parameters(spec, "BBWW") == (1, 1)
    assert perfect_parameters(spec, "BWBW") == (2, 2)
    assert perfect_parameters(spec, "BBBW") is None
    assert perfect_parameters(spec, "BBBB") is None


def _naive_parameters(spec, colors):
    # vertex by vertex over the neighbour multisets, independent of the convolution
    whites = [sum(colors[h] == WHITE for h in spec.neighbors(g)) for g in range(spec.modulus)]
    of_black = {n for n, ch in zip(whites, colors) if ch == BLACK}
    of_white = {2 * spec.k - n for n, ch in zip(whites, colors) if ch == WHITE}
    if len(of_black) != 1 or len(of_white) != 1:
        return None
    (b,), (c,) = of_black, of_white
    return (b, c) if b >= 1 and c >= 1 else None


def test_perfect_parameters_agrees_with_checker():
    rng = random.Random(25)
    for _ in range(500):
        p = rng.randrange(1, 10)
        spec = CirculantSpec(p, tuple(rng.randrange(3 * p) for _ in range(rng.randrange(1, 4))))
        colors = "".join(rng.choice("BW") for _ in range(p))
        naive = _naive_parameters(spec, colors)
        assert perfect_parameters(spec, colors) == naive, (spec, colors)
        # is_perfect_coloring holds for exactly the naively counted pair
        for b in range(1, 2 * spec.k + 1):
            for c in range(1, 2 * spec.k + 1):
                assert is_perfect_coloring(spec, Coloring(colors, b, c)) == (naive == (b, c))
    # wider digits in the convolution: odd jumps make alternation perfect with b = c = 2k = 512
    spec = CirculantSpec(1024, tuple(rng.randrange(1, 2048, 2) for _ in range(256)))
    for colors in ("BW" * 512, "".join(rng.choice("BW") for _ in range(1024))):
        assert perfect_parameters(spec, colors) == _naive_parameters(spec, colors)
    assert perfect_parameters(spec, "BW" * 512) == (512, 512)


def test_perfect_parameters_many_jumps_at_large_order():
    # 2^14 odd jumps on 2^16 vertices: alternation is perfect with b = c = 2k, and one
    # flipped vertex spoils it. The jump operand is one packed integer, not k big sums
    p, k = 2**16, 2**14
    spec = CirculantSpec(p, tuple(range(1, 2 * k, 2)))
    colors = "BW" * (p // 2)
    assert perfect_parameters(spec, colors) == (2 * k, 2 * k)
    assert perfect_parameters(spec, "W" + colors[1:]) is None
    # all 2k = 2^16 jumps land on vertex 1: a count of 17 bits, carried into a third byte
    assert perfect_parameters(CirculantSpec(2, (1,) * 2**15), "BW") == (2**16, 2**16)


def test_perfect_parameters_rejects_bad_colors():
    spec = CirculantSpec(4, (1,))
    for colors in ("BBWWBBWW", "BW", "BBWWX"):
        with pytest.raises(ValueError, match="graph on 4 vertices, colouring on %d$" % len(colors)):
            perfect_parameters(spec, colors)
    for colors in ("BBWX", "bbww"):
        with pytest.raises(ValueError):
            perfect_parameters(spec, colors)


def test_perfect_parameters_either_side_of_byte_digits():
    # counts of at most 2k = 254 are the product's bytes; 2k = 256 takes the wide digits.
    # Distances beyond P and repeated ones, up to all 2k jumps landing on one vertex
    rng = random.Random(26)
    checked = 0
    for k in (127, 128):
        for p in (1, 2, 6, 7, 10, 16):
            graphs = [tuple(rng.randrange(3 * p + 1) for _ in range(k)),
                      (p // 2,) * k,
                      (p,) * (k - 1) + (rng.randrange(5 * p),),
                      tuple(rng.randrange(1, 4 * p, 2) for _ in range(k))]
            for distances in graphs:
                spec = CirculantSpec(p, distances)
                vectors = ["".join(rng.choice("BW") for _ in range(p)) for _ in range(6)]
                vectors += ["B" * p, "W" * p, "B" + "W" * (p - 1), "BW" * (p // 2) + "B" * (p % 2)]
                for colors in vectors:
                    assert perfect_parameters(spec, colors) == _naive_parameters(spec, colors), \
                        (p, distances, colors)
                    checked += 1
    assert checked > 400
    # odd jumps make alternation perfect with the largest counts, b = c = 2k
    assert perfect_parameters(CirculantSpec(10, (1, 3) * 63 + (5,)), "BW" * 5) == (254, 254)
    assert perfect_parameters(CirculantSpec(10, (1, 3) * 64), "BW" * 5) == (256, 256)
    # all 254 jumps of a vertex land on the opposite one
    assert perfect_parameters(CirculantSpec(6, (3,) * 127), "BBBWWW") == (254, 254)
    assert perfect_parameters(CirculantSpec(6, (3,) * 127), "BWBBWW") is None


def test_perfect_parameters_rejects_bad_colors_either_side_of_byte_digits():
    for k in (127, 128):
        spec = CirculantSpec(4, (1,) * k)
        for colors in ("BBWWB", "BW", "", "BBWWBBWW"):
            with pytest.raises(ValueError, match="graph on 4 vertices, colouring on %d$" % len(colors)):
                perfect_parameters(spec, colors)
        for colors in ("BBWX", "bbww", "BBW\u00e9", "WWWX", "XXXX", "BB\x01W", "B\x00WW",
                       "\u00e9\u00e9\u00e9\u00e9"):
            with pytest.raises(ValueError):
                perfect_parameters(spec, colors)


def test_document_roundtrip():
    spec = CirculantSpec(8, (1, 11))
    doc = build_document(spec, 3, 1, "BBWWWWWW")
    assert doc["version"] == 1
    assert doc["P"] == 8
    assert doc["distances"] == [1, 11]
    assert doc["colors"] == "BBWWWWWW"
    spec2, b, c, colors = parse_document(doc)
    assert spec2 == spec and (b, c) == (3, 1) and colors == "BBWWWWWW"

    bare = build_document(spec, 3, 1, None)
    assert "colors" not in bare
    _, _, _, none_colors = parse_document(bare)
    assert none_colors is None


def test_parse_document_rejects_malformed():
    good = build_document(CirculantSpec(4, (1,)), 1, 1, "BBWW")
    for breakage in (
        {"version": 2},
        {"P": "4"},
        {"b": 0},
        {"c": -1},
        {"distances": "1"},
        {"colors": "BBXW"},
        {"colors": "BWW"},
    ):
        bad = dict(good)
        bad.update(breakage)
        with pytest.raises(ValueError):
            parse_document(bad)
    # JSON booleans load as bool, which Python counts as an int
    for bad in (
        {"version": 1, "P": 8, "distances": [1, 1, 10], "b": True, "c": 6, "colors": "BBBWBBBW"},
        {"version": 1, "P": 8, "distances": [True, 1, 10], "b": 2, "c": 6, "colors": "BBBWBBBW"},
        {"version": 1, "P": True, "distances": [0], "b": 1, "c": 1, "colors": "B"},
    ):
        with pytest.raises(ValueError):
            parse_document(bad)
    with pytest.raises(ValueError):
        parse_document({"version": 1})
