"""The brute-force enumeration oracles and their agreement with the constructions."""

import functools
import inspect
import itertools
import random
import tracemalloc

import pytest
from reference import split_sums

import cyclotile
from cyclotile import oracle
from cyclotile.coloring import (
    BLACK,
    WHITE,
    CirculantSpec,
    Coloring,
    coloring_to_tiling,
    is_perfect_coloring,
    structured_tile,
    tiling_to_coloring,
)
from cyclotile.errors import InputTooLarge, NotExists
from cyclotile.oracle import (
    census_colorings,
    search_colorings,
    search_tilings,
)
from cyclotile.tiling import (
    Tile,
    construct_tiling_prime_power,
    multitiling_exists,
    verify_multitiling,
)


def test_search_colorings_square():
    spec = CirculantSpec(4, (1,))
    report = search_colorings(spec, 1, 1)
    assert [col.colors for col in report.found] == ["BBWW", "WBBW", "BWWB", "WWBB"]
    assert report.exhausted
    assert report.states_examined == 16
    for col in report.found:
        assert is_perfect_coloring(spec, col)


def test_search_colorings_triangle_empty():
    report = search_colorings(CirculantSpec(3, (1,)), 1, 1)
    assert report.found == ()
    assert report.exhausted
    assert report.states_examined == 8


def test_search_colorings_two_cycle():
    report = search_colorings(CirculantSpec(2, (1,)), 2, 2)
    assert [col.colors for col in report.found] == ["BW", "WB"]
    assert report.exhausted


def test_search_colorings_limit():
    report = search_colorings(CirculantSpec(4, (1,)), 1, 1, limit=2)
    assert [col.colors for col in report.found] == ["BBWW", "WBBW"]
    assert not report.exhausted
    assert report.states_examined < 16


def test_search_colorings_too_large():
    with pytest.raises(InputTooLarge, match="2\\^25 states; pass a limit or stay at P <= 24"):
        search_colorings(CirculantSpec(25, (1,)), 1, 1)
    # a limit caps the work and is allowed; C_25(5, 10) splits into five
    # cliques on {i, i+5, ..., i+20}, so one all-black clique gives the
    # first (4, 1)-perfect pattern at mask 0b11111
    spec = CirculantSpec(25, (5, 10))
    report = search_colorings(spec, 4, 1, limit=1)
    assert [col.colors for col in report.found] == ["BBBBB" + "W" * 20]
    assert report.states_examined == 32
    assert not report.exhausted


def test_search_colorings_order_cap():
    # refused before a row is built: 200 000 rows alone take tens of MB, and 2^P
    # would not print in decimal
    tracemalloc.start()
    try:
        with pytest.raises(InputTooLarge):
            search_colorings(CirculantSpec(200000, (1,)), 1, 1, limit=1, max_states=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # above the cap even a search that classifies nothing is refused, since its report
    # would name the counter position 2^P
    with pytest.raises(InputTooLarge):
        search_colorings(CirculantSpec(oracle.MAX_LIMITED_ORDER + 1, (1,)), 1, 2, limit=1)
    # at the cap every report and every error still prints, within the interpreter's
    # default limit on int to decimal conversion
    spec = CirculantSpec(oracle.MAX_LIMITED_ORDER, (1,))
    assert str(search_colorings(spec, 1, 2, limit=1).states_examined) == str(2**spec.modulus)
    with pytest.raises(InputTooLarge, match="classified 1000 states and reached counter position"):
        search_colorings(spec, 1, 1, limit=1, max_states=1000)


def test_search_colorings_rejects_nonpositive_limit():
    for limit in (0, -3):
        with pytest.raises(ValueError):
            search_colorings(CirculantSpec(4, (1,)), 1, 1, limit=limit)


def test_search_colorings_rejects_nonpositive_b_or_c():
    for b, c in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="b and c must be positive"):
            search_colorings(CirculantSpec(4, (1,)), b, c)


def test_search_colorings_beyond_degree_skips_the_sweep():
    # b or c above 2k matches no state; the report is that of a full sweep, at once
    for spec, b, c in [(CirculantSpec(6, (1,)), 3, 1), (CirculantSpec(6, (1, 2)), 1, 5),
                       (CirculantSpec(30, (1, 2)), 9, 1)]:
        report = search_colorings(spec, b, c, limit=1)
        assert report == oracle.SearchReport((), True, 2**spec.modulus)
    with pytest.raises(InputTooLarge, match="2\\^30 states; pass a limit or stay at P <= 24"):
        search_colorings(CirculantSpec(30, (1, 2)), 9, 1)


def test_search_tilings_examples():
    u = Tile((1, 0, 1, 0))
    found = [v.values for v in search_tilings(u, 1)]
    assert sorted(found) == sorted(
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)])
    assert [v.values for v in search_tilings(u, 2)] == [(1, 1, 1, 1)]
    assert search_tilings(Tile((1, 0, 0)), 2) == []


def test_search_tilings_counter_order():
    # masks ascend: 3 = [1,1,0,0], 6 = [0,1,1,0], 9 = [1,0,0,1], 12 = [0,0,1,1]
    found = [v.values for v in search_tilings(Tile((1, 0, 1, 0)), 1)]
    assert found == [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)]


def test_search_tilings_too_large():
    with pytest.raises(InputTooLarge, match="2\\^25 states is more than this oracle will try"):
        search_tilings(Tile((1,) + (0,) * 24), 1)


def test_search_tilings_matches_unfiltered_filter():
    # search_tilings skips masks by their number of ones; it must find
    # exactly what checking every mask finds, for signed tiles, tiles of
    # sum zero (v = 0 and the periodic v cover 1 - x^h zero times) and m = 0
    rng = random.Random(41)
    cases = [(Tile((1, 0, 1, 0)), 1), (Tile((1, 1, 0, 0, 0, 0)), 1), (Tile((2, -1, 1)), 2)]
    for _ in range(60):
        p = rng.randrange(1, 11)
        values = [rng.randrange(-2, 3) for _ in range(p)]
        if rng.random() < 0.4:
            values[rng.randrange(p)] -= sum(values)
        cases.append((Tile(tuple(values)), rng.choice([0, 0, 1, 2, -1, sum(values)])))
    for p in range(2, 11):
        h = rng.randrange(1, p)
        cases.append((Tile(tuple(1 if g == 0 else -1 if g == h else 0 for g in range(p))), 0))
    hits = zero_sum_hits = 0
    for u, m in cases:
        p = u.modulus
        everything = (Tile(tuple((mask >> g) & 1 for g in range(p))) for mask in range(1 << p))
        expected = [v for v in everything if verify_multitiling(u, v, m)]
        assert search_tilings(u, m) == expected, (u, m)
        hits += len(expected)
        zero_sum_hits += sum(u.values) == 0 and m == 0 and len(expected) > 1
    assert hits > 50 and zero_sum_hits > 10


def _every_mask_filtered(u, m):
    p = u.modulus
    everything = (Tile(tuple((mask >> g) & 1 for g in range(p))) for mask in range(1 << p))
    return [v for v in everything if verify_multitiling(u, v, m)]


def test_search_tilings_is_the_census_on_structured_tiles():
    # graphs shaped like the benchmark's: the c-tilings of the structured tile are
    # the census's (b, c) bucket read as indicator tiles, in the same counter order
    hits = 0
    for p in (14, 15, 16):
        for distances in [(1, 2, 4), (1, 3, 6)]:
            spec = CirculantSpec(p, distances)
            census = census_colorings(spec)
            for b in range(1, 2 * spec.k + 1):
                for c in range(1, 2 * spec.k + 1):
                    expected = [coloring_to_tiling(col) for col in census.get((b, c), [])]
                    assert search_tilings(structured_tile(spec, b, c), c) == expected, (spec, b, c)
                    hits += len(expected)
    assert hits > 100


def test_search_tilings_colliding_values_and_negative_centre():
    # b + c below 2k makes the centre value b + c - 2k negative, and distances that
    # repeat or pair with themselves (l = P / 2) make entries of 2 and more
    hits = 0
    for spec, b, c in [(CirculantSpec(8, (1, 1, 4)), 1, 1), (CirculantSpec(8, (1, 1, 4)), 2, 2),
                       (CirculantSpec(10, (5, 8, 9)), 3, 2), (CirculantSpec(10, (5, 8, 9)), 2, 3),
                       (CirculantSpec(10, (5, 6, 7)), 2, 3)]:
        u = structured_tile(spec, b, c)
        assert u.values[0] < 0 and max(u.values) >= 2, u
        for m in sorted({-1, 0, 1, 2, c}):
            expected = _every_mask_filtered(u, m)
            assert search_tilings(u, m) == expected, (spec, b, c, m)
            hits += len(expected)
    assert hits > 30


def test_search_tilings_all_zero_tile():
    for p in (1, 5, 9):
        u = Tile((0,) * p)
        found = search_tilings(u, 0)
        assert found == [Tile(tuple((mask >> g) & 1 for g in range(p))) for mask in range(1 << p)]
        assert search_tilings(u, 1) == [] and search_tilings(u, -2) == []


def test_search_tilings_confirms_each_hit_once(monkeypatch):
    calls = []

    def counting(u, v, m):
        calls.append(v)
        return verify_multitiling(u, v, m)

    # search_tilings looks verify_multitiling up in the package namespace when it is called
    monkeypatch.setattr(cyclotile, "verify_multitiling", counting)
    spec = CirculantSpec(12, (1, 2))
    found = search_tilings(structured_tile(spec, 2, 2), 2)
    assert calls == found and len(found) >= 1
    monkeypatch.setattr(cyclotile, "verify_multitiling", lambda u, v, m: False)
    with pytest.raises(AssertionError):
        search_tilings(structured_tile(spec, 2, 2), 2)


def test_hits_read_off_one_binary_string_match_the_per_bit_expressions(monkeypatch):
    # the colour string and the 0/1 tile of a mask, vertex g from bit g: both ends and
    # 500 seeded masks at every P the exhaustive searches reach
    rng = random.Random(63)
    monkeypatch.setattr(cyclotile, "verify_multitiling", lambda u, v, m: True)
    for p in range(1, oracle.MAX_EXHAUSTIVE_ORDER + 1):
        masks = [0, (1 << p) - 1] + [rng.getrandbits(p) for _ in range(500)]
        assert [oracle._colors_of(mask, p) for mask in masks] == [
            "".join(BLACK if (mask >> g) & 1 else WHITE for g in range(p)) for mask in masks]
        monkeypatch.setattr(oracle, "_covers", lambda u, m: iter(masks))
        assert search_tilings(Tile((1,) * p), 1) == [
            Tile(tuple((mask >> g) & 1 for g in range(p))) for mask in masks]


def _check_agreement(spec, b, c):
    u = structured_tile(spec, b, c)
    oracle_found = search_tilings(u, c)
    exists = multitiling_exists(u, c).passed
    try:
        v = construct_tiling_prime_power(u, c)
        constructed = True
    except NotExists:
        constructed = False
    assert bool(oracle_found) == exists == constructed, (spec, b, c)
    if constructed:
        assert v.values in [w.values for w in oracle_found]


def test_oracle_constructor_agreement():
    # tiling existence, the divisibility test, and the constructor agree
    for p in (2, 3, 4, 5, 7, 8, 9):
        for k in (1, 2):
            for distances in itertools.combinations_with_replacement(range(p), k):
                spec = CirculantSpec(p, distances)
                for b in range(1, 7):
                    for c in range(1, 8 - b):
                        _check_agreement(spec, b, c)


def test_oracle_constructor_agreement_sixteen():
    # spot coverage at the largest prime power the oracle can handle
    for distances in [(1,), (1, 3), (0, 2)]:
        spec = CirculantSpec(16, distances)
        for b in range(1, 7):
            for c in range(1, 8 - b):
                _check_agreement(spec, b, c)


def test_search_colorings_matches_tiling_search():
    for p in (2, 3, 4, 5, 6):
        for distances in [(1,), (0,), (1, 2 % p)]:
            spec = CirculantSpec(p, distances)
            for b in range(1, 5):
                for c in range(1, 5):
                    u = structured_tile(spec, b, c)
                    via_tilings = {
                        tiling_to_coloring(v, b, c).colors
                        for v in search_tilings(u, c)
                    }
                    direct = {col.colors for col in search_colorings(spec, b, c).found}
                    assert direct == via_tilings, (p, distances, b, c)


def _filter_all_states(spec, b, c):
    p = spec.modulus
    cols = (Coloring("".join("B" if (mask >> g) & 1 else "W" for g in range(p)), b, c)
            for mask in range(1 << p))
    return [col for col in cols if is_perfect_coloring(spec, col)]


def test_census_matches_search():
    # the census and the search share the classifier; both must also match
    # a plain filter of every state through the convolution-based check
    for p in range(2, 9):
        for distances in [(1,), (0,), (p - 1,), (1, 1), (1, 2 % p)]:
            spec = CirculantSpec(p, distances)
            census = census_colorings(spec)
            for b in range(1, 2 * spec.k + 2):
                for c in range(1, 2 * spec.k + 2):
                    expected = _filter_all_states(spec, b, c)
                    found = list(search_colorings(spec, b, c).found)
                    assert found == expected, (p, distances, b, c)
                    assert census.get((b, c), []) == expected, (p, distances, b, c)
            # census never reports a pair outside the direct search
            for (b, c), cols in census.items():
                assert cols == list(search_colorings(spec, b, c).found)


def test_search_confirms_each_hit_once(monkeypatch):
    calls = []

    def counting(spec, col):
        calls.append(col.colors)
        return is_perfect_coloring(spec, col)

    monkeypatch.setattr(oracle, "is_perfect_coloring", counting)
    report = search_colorings(CirculantSpec(8, (1, 2)), 2, 2)
    assert report.states_examined == 256
    assert calls == [col.colors for col in report.found] and len(calls) >= 1
    calls.clear()
    report = search_colorings(CirculantSpec(8, (1, 2)), 2, 2, limit=1)
    assert calls == ["BWBWBWBW"]
    assert report.states_examined == 86


def test_census_buckets_are_perfect():
    spec = CirculantSpec(8, (1, 3))
    for (b, c), cols in census_colorings(spec).items():
        assert cols
        for col in cols:
            assert col.b == b and col.c == c
            assert is_perfect_coloring(spec, col)


def test_census_too_large():
    with pytest.raises(InputTooLarge, match="2\\^25 states is more than this oracle will try"):
        census_colorings(CirculantSpec(25, (1,)))


@functools.lru_cache(maxsize=None)
def _weight_class(p, w):
    return tuple(mask for mask in range(1 << p) if mask.bit_count() == w)


def _mask_of(colors):
    return sum(1 << g for g, x in enumerate(colors) if x == "B")


def _bounded(spec, b, c, limit, max_states, perfect):
    # what the per-state classifier says a search reports (perfect maps masks to the pair
    # they are perfect for): the hits in counter order and the counter position at the
    # limit, or the error of a bound of max_states states of the weight P * c / (b + c)
    # that runs out before the limit is met
    p = spec.modulus
    found = sorted(mask for mask, pair in perfect.items() if pair == (b, c))
    stop = None  # the first state of the weight class past the bound
    if max_states is not None and p * c % (b + c) == 0:
        weight_class = _weight_class(p, p * c // (b + c))
        if max_states < len(weight_class):
            stop = weight_class[max_states]
    if limit is not None and len(found) >= limit and (stop is None or found[limit - 1] < stop):
        return found[:limit], found[limit - 1] + 1 == 2**p, found[limit - 1] + 1
    if stop is not None:
        return ("classified %d states and reached counter position %d of 2^%d;"
                " raise max_states to go further" % (max_states, stop, p))
    return found, True, 2**p


def _searched(spec, b, c, limit, max_states=2**oracle.MAX_EXHAUSTIVE_ORDER):
    try:
        report = search_colorings(spec, b, c, limit, max_states)
    except InputTooLarge as exc:
        return str(exc)
    return [_mask_of(col.colors) for col in report.found], report.exhausted, report.states_examined


def _widths(p):
    # blocks of 1 and 3 bits and of P - 1 bits (two blocks); the other tests run the
    # module's own width, one block of 2^P states when P is at most that
    return sorted({1, 3, max(p - 1, 1)})


def test_search_colorings_matches_full_sweep():
    # a search classifies only the weight class P * c / (b + c); its hits, exhausted
    # flag and counter position must equal those of the unfiltered classifier
    rng = random.Random(43)
    specs = [CirculantSpec(8, (1, 2)), CirculantSpec(10, (1, 3)), CirculantSpec(9, (1, 3)),
             CirculantSpec(6, (1, 2, 3))]
    for _ in range(24):
        p = rng.randrange(1, 11)
        specs.append(CirculantSpec(p, tuple(rng.randrange(2 * p) for _ in range(rng.randrange(1, 4)))))
    hits = stopped = 0
    for spec in specs:
        perfect = dict(oracle._classified(spec, range(2**spec.modulus)))
        for b in range(1, 2 * spec.k + 1):
            for c in range(1, 2 * spec.k + 1):
                for limit in (None, 1, 2, 3):
                    found, exhausted, examined = _bounded(spec, b, c, limit, None, perfect)
                    assert _searched(spec, b, c, limit) == (found, exhausted, examined), (spec, b, c, limit)
                    hits += len(found)
                    stopped += not exhausted
    assert hits > 200 and stopped > 20


def test_search_colorings_indivisible_weight_classifies_nothing(monkeypatch):
    # when P * c is not a multiple of b + c no colouring has a whole number of
    # black vertices, and the full-sweep report comes back without a classified state
    calls = []
    walk = oracle._walk

    def counting(rows, target, weight, max_states=None):
        calls.append(len(rows))
        return walk(rows, target, weight, max_states)

    monkeypatch.setattr(oracle, "_walk", counting)
    for spec, b, c, limit in [(CirculantSpec(30, (1, 2)), 1, 3, 1), (CirculantSpec(10, (1, 2)), 1, 2, None),
                              (CirculantSpec(9, (1,)), 1, 1, None), (CirculantSpec(40, (1, 2)), 1, 2, 1)]:
        report = search_colorings(spec, b, c, limit)
        assert report == oracle.SearchReport((), True, 2**spec.modulus)
    assert calls == []
    report = search_colorings(CirculantSpec(10, (1, 2)), 1, 4)  # w = 8
    assert len(calls) == 1 and report.exhausted and report.states_examined == 2**10


def test_search_colorings_max_states_default():
    default = inspect.signature(search_colorings).parameters["max_states"].default
    assert default == 2**oracle.MAX_EXHAUSTIVE_ORDER


def test_search_colorings_max_states_bounds_the_classified_states():
    # C_8(1, 2) at (2, 2) classifies the C(8, 4) = 70 masks of weight 4
    spec = CirculantSpec(8, (1, 2))
    full = search_colorings(spec, 2, 2)
    assert search_colorings(spec, 2, 2, max_states=70) == full
    with pytest.raises(InputTooLarge, match="raise max_states to go further") as exc:
        search_colorings(spec, 2, 2, max_states=69)
    # the 70th mask of weight 4 is 0b11110000: the counter stopped there
    assert "classified 69 states" in str(exc.value)
    assert "counter position 240 of 2^8" in str(exc.value)
    for bound in (0, -1):
        with pytest.raises(ValueError):
            search_colorings(spec, 2, 2, max_states=bound)


def test_search_colorings_max_states_with_limit():
    # the first (2, 2) hit is BWBWBWBW, mask 85; the bound counts the weight-4 masks up to it
    spec = CirculantSpec(8, (1, 2))
    needed = _weight_class(8, 4).index(85) + 1
    report = search_colorings(spec, 2, 2, limit=1, max_states=needed)
    assert report == search_colorings(spec, 2, 2, limit=1)
    assert [col.colors for col in report.found] == ["BWBWBWBW"] and report.states_examined == 86
    with pytest.raises(InputTooLarge, match="counter position 85 of 2\\^8"):
        search_colorings(spec, 2, 2, limit=1, max_states=needed - 1)
    # a limit past P = 24 is bounded by the states, not by the hits
    with pytest.raises(InputTooLarge, match="classified 1000 states"):
        search_colorings(CirculantSpec(40, (1, 2)), 1, 3, limit=1, max_states=1000)
    # an impossible weight classifies nothing, so any bound is met
    report = search_colorings(CirculantSpec(40, (1, 2)), 1, 2, limit=1, max_states=1)
    assert report.exhausted and report.found == ()


def test_block_walk_matches_the_classifier_on_every_small_graph(monkeypatch):
    # every graph with P <= 10 and up to three distances (l and P - l give the same graph)
    hits = stopped = 0
    for p in range(1, 11):
        for k in (1, 2, 3):
            for distances in itertools.combinations_with_replacement(range(p // 2 + 1), k):
                spec = CirculantSpec(p, distances)
                perfect = dict(oracle._classified(spec, range(2**p)))
                for width in _widths(p):
                    monkeypatch.setattr(oracle, "BLOCK_BITS", width)
                    for b in range(1, 2 * k + 1):
                        for c in range(1, 2 * k + 1):
                            for limit in (None, 1, 2):
                                expected = _bounded(spec, b, c, limit, None, perfect)
                                assert _searched(spec, b, c, limit) == expected, (spec, b, c, limit, width)
                                hits += len(expected[0])
                                stopped += not expected[1]
                    monkeypatch.undo()
    assert hits > 10000 and stopped > 1000


def test_block_walk_matches_the_classifier_on_larger_graphs(monkeypatch):
    rng = random.Random(47)
    hits = 0
    specs = [CirculantSpec(p, tuple(rng.sample(range(1, p // 2 + 1), 2))) for p in (16, 18, 20)]
    # six distances: a row holds a weight on 13 of the 16 bits, so the bit set of weight 1
    # is dense and wraps around when it is turned; its hits are at (6, 6), (7, 7) and (8, 8)
    specs.append(CirculantSpec(16, tuple(rng.sample(range(1, 8), 6))))
    for spec in specs:
        p = spec.modulus
        by_weight = {}
        for b in range(1, 2 * spec.k + 1):
            for c in range(1, 2 * spec.k + 1):
                if p * c % (b + c):
                    continue
                w = p * c // (b + c)
                if w not in by_weight:
                    by_weight[w] = dict(oracle._classified(spec, _weight_class(p, w)))
                for width in _widths(p) + [oracle.BLOCK_BITS] if p == 16 else [p - 5, p - 1, oracle.BLOCK_BITS]:
                    monkeypatch.setattr(oracle, "BLOCK_BITS", width)
                    for limit in (None, 1, 2):
                        expected = _bounded(spec, b, c, limit, None, by_weight[w])
                        assert _searched(spec, b, c, limit) == expected, (spec, b, c, limit, width)
                        hits += len(expected[0])
                    monkeypatch.undo()
    assert hits > 100


def test_block_walk_max_states_at_block_boundaries(monkeypatch):
    # a bound that falls just before, on or just after the first state of a block: the
    # error names the states classified and the next counter position, and a limit met
    # within the bound wins over it
    specs = [CirculantSpec(8, (1, 2)), CirculantSpec(10, (1, 3)), CirculantSpec(9, (0, 0, 2)),
             CirculantSpec(10, (3,)), CirculantSpec(8, (4, 2, 0)), CirculantSpec(16, (1, 3, 6))]
    cut = hits = 0
    for spec in specs:
        p = spec.modulus
        for b in range(1, 2 * spec.k + 1):
            for c in range(1, 2 * spec.k + 1):
                if p * c % (b + c):
                    continue
                weight_class = _weight_class(p, p * c // (b + c))
                perfect = dict(oracle._classified(spec, weight_class))
                if p > 10 and (b, c) not in perfect.values():
                    continue
                for width in _widths(p) + [oracle.BLOCK_BITS] if p <= 10 else [p - 1, oracle.BLOCK_BITS]:
                    monkeypatch.setattr(oracle, "BLOCK_BITS", width)
                    firsts = [i for i in range(1, len(weight_class))
                              if weight_class[i] >> width != weight_class[i - 1] >> width]
                    bounds = {i + d for i in firsts + [len(weight_class)] for d in range(-2, 3)}
                    for max_states in sorted(bound for bound in bounds if bound >= 1):
                        for limit in (None, 1):
                            expected = _bounded(spec, b, c, limit, max_states, perfect)
                            got = _searched(spec, b, c, limit, max_states)
                            assert got == expected, (spec, b, c, limit, width, max_states)
                            cut += isinstance(expected, str)
                            hits += not isinstance(expected, str) and len(expected[0])
                    monkeypatch.undo()
    assert cut > 1000 and hits > 1000


def test_search_tilings_at_forced_block_widths(monkeypatch):
    # the walk in blocks of 1, 3 and P - 1 bits against the every-mask filter: weight 0
    # and weight P, tiles of sum zero with m = 0 (every weight qualifies), negative
    # centres and colliding values
    rng = random.Random(59)
    cases = [(Tile((2, 0, 0, 0)), 0), (Tile((1, 0, 0)), 1), (Tile((1, 1, 0, 0)), 2),
             (Tile((-1, 0, 0, 0, 0)), -1), (Tile((0,) * 6), 0), (Tile((1, 0, -1, 0, 0)), 0)]
    for spec, b, c in [(CirculantSpec(8, (1, 1, 4)), 1, 1), (CirculantSpec(10, (5, 8, 9)), 3, 2),
                       (CirculantSpec(10, (5, 6, 7)), 2, 3)]:
        cases += [(structured_tile(spec, b, c), m) for m in (-1, 0, 1, c)]
    for _ in range(40):
        p = rng.randrange(2, 11)
        values = [rng.randrange(-2, 3) for _ in range(p)]
        if rng.random() < 0.4:
            values[rng.randrange(p)] -= sum(values)
        cases.append((Tile(tuple(values)), rng.choice([0, 1, 2, -1, sum(values)])))
    hits = every_weight = 0
    for u, m in cases:
        expected = _every_mask_filtered(u, m)
        for width in _widths(u.modulus):
            monkeypatch.setattr(oracle, "BLOCK_BITS", width)
            assert search_tilings(u, m) == expected, (u, m, width)
        monkeypatch.undo()
        hits += len(expected)
        every_weight += sum(u.values) == m == 0 and len({sum(v.values) for v in expected}) > 2
    assert _every_mask_filtered(Tile((2, 0, 0, 0)), 0) == [Tile((0, 0, 0, 0))]
    assert _every_mask_filtered(Tile((1, 1, 0, 0)), 2) == [Tile((1, 1, 1, 1))]
    assert hits > 100 and every_weight >= 3


def test_plane_tables_match_the_splitting_reference():
    # a vertex's low-bit sums as bit planes, read at every sum, against the table that
    # splits each set of block states by one bit at a time: signed weights, weights up to
    # ~1000 whose carries grow new planes, repeated bits, and the empty row
    rng = random.Random(61)
    cases = 0
    for width in range(1, 13):
        full, bits, _ = oracle._block(width)
        rows = [[], [(h, 1) for h in range(width)], [(h, -1) for h in range(width)],
                [(0, 1000), (width - 1, -999)], [(0, 3), (0, 5), (0, -8)]]
        for _ in range(4 if width < 10 else 2):
            rows.append([(rng.randrange(width), rng.choice([rng.randrange(-3, 4), rng.randrange(-1000, 1001)]))
                         for _ in range(rng.randrange(1, width + 3))])
        for row in rows:
            planes, offset = oracle._planes(row, full, bits)
            expected = split_sums(row, full, bits)
            low, high = min(expected), max(expected)
            for t in range(low - 2, high + 3) if high - low < 300 else list(expected) + [low - 1, high + 1]:
                assert oracle._level(planes, full, t + offset) == expected.get(t, 0), (width, row, t)
            cases += 1
    assert cases > 80


def test_block_weight_classes_are_the_popcount_classes():
    for width in range(1, 13):
        full, bits, classes = oracle._block(width)
        states = range(1 << width)
        assert full == sum(1 << x for x in states)
        assert bits == tuple(sum(1 << x for x in states if x >> h & 1) for h in range(width))
        assert classes == tuple(sum(1 << x for x in states if x.bit_count() == j) for j in range(width + 1))
