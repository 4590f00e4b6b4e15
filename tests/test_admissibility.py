"""Parameter admissibility and the constructive distance pipeline."""

import importlib
import itertools
import math
import random

import pytest

from cyclotile import admissibility, coloring, tiling
from cyclotile.admissibility import (
    MAX_DISTANCES,
    ParamTriple,
    check_admissible,
    check_graph_condition,
    construct_distances,
    construct_perfect_coloring,
    witness_to_document,
)
from cyclotile.coloring import CirculantSpec, is_perfect_coloring, parse_document
from cyclotile.errors import BoundViolated, Inadmissible, InputTooLarge, NotPrimePowerSum
from cyclotile.oracle import search_colorings
from cyclotile.tiling import Tile, construct_multitiling, construct_tiling_prime_power


def test_param_triple():
    p = ParamTriple(4, 6, 3)
    assert p.color_sum == 10
    assert p.reduced_sum == 5
    with pytest.raises(ValueError):
        ParamTriple(0, 1, 1)
    with pytest.raises(ValueError):
        ParamTriple(1, 1, 0)


def test_check_admissible_examples():
    verdict = check_admissible(ParamTriple(5, 3, 3))
    assert not verdict.admissible
    assert [(v.q, v.t) for v in verdict.violations] == [(2, 3)]
    assert verdict.violations[0].bound == 7

    verdict = check_admissible(ParamTriple(4, 3, 2))
    assert not verdict.admissible
    assert [(v.q, v.t) for v in verdict.violations] == [(7, 1)]
    assert verdict.violations[0].bound == 5

    assert check_admissible(ParamTriple(2, 2, 1)).admissible
    assert check_admissible(ParamTriple(1, 1, 1)).admissible


def test_check_admissible_brute_force():
    # compare against a direct sweep over every prime power dividing N
    for b in range(1, 13):
        for c in range(1, 13):
            for k in range(1, 5):
                n = (b + c) // math.gcd(b, c)
                expected = True
                for q in range(2, n + 1):
                    if n % q:
                        continue
                    if any(q % d == 0 for d in range(2, q)):
                        continue
                    t = 0
                    while n % q ** (t + 1) == 0:
                        t += 1
                    if b + c > 2 * k + (b + c) // q ** t:
                        expected = False
                verdict = check_admissible(ParamTriple(b, c, k))
                assert verdict.admissible == expected, (b, c, k)


def test_admissible_symmetric_and_monotone():
    for b in range(1, 11):
        for c in range(1, 11):
            for k in range(1, 6):
                direct = check_admissible(ParamTriple(b, c, k)).admissible
                assert direct == check_admissible(ParamTriple(c, b, k)).admissible
                if direct:
                    assert check_admissible(ParamTriple(b, c, k + 1)).admissible


def test_violations_record_maximal_t_only():
    verdict = check_admissible(ParamTriple(1, 7, 1))
    assert [(v.q, v.t) for v in verdict.violations] == [(2, 3)]


def test_graph_condition_examples():
    verdict = check_graph_condition(CirculantSpec(4, (1,)), 1, 1)
    assert verdict.passed and verdict.exact
    assert verdict.prime_power_product_at_one == 2
    assert verdict.reduced_sum == 2

    verdict = check_graph_condition(CirculantSpec(3, (1,)), 1, 1)
    assert not verdict.passed
    assert verdict.prime_power_product_at_one == 1

    verdict = check_graph_condition(CirculantSpec(4, (5,)), 1, 1)
    assert verdict.passed and verdict.exact


def test_graph_condition_is_divisibility_by_reduced_sum():
    # the verdict comes from the c-multitiling test on the structured tile;
    # it must agree with N | pi read off the same spectrum
    rng = random.Random(32)
    for _ in range(300):
        p = rng.randrange(2, 25)
        distances = tuple(rng.randrange(0, 2 * p) for _ in range(rng.randrange(1, 4)))
        b, c = rng.randrange(1, 9), rng.randrange(1, 9)
        verdict = check_graph_condition(CirculantSpec(p, distances), b, c)
        assert verdict.reduced_sum == (b + c) // math.gcd(b, c)
        assert verdict.passed == (verdict.prime_power_product_at_one % verdict.reduced_sum == 0)
        assert verdict.divisor_product_at_one == verdict.prime_power_product_at_one


def test_graph_condition_huge_distance():
    # distances enter only modulo P, so one of 10^12 allocates nothing of its size
    huge = check_graph_condition(CirculantSpec(8, (1, 10**12)), 1, 1)
    assert huge == check_graph_condition(CirculantSpec(8, (1, 0)), 1, 1)


def test_graph_condition_exact_flag():
    assert check_graph_condition(CirculantSpec(8, (1, 11)), 3, 1).exact
    assert not check_graph_condition(CirculantSpec(6, (1,)), 1, 1).exact


def test_graph_condition_rejects_degenerate():
    with pytest.raises(ValueError):
        check_graph_condition(CirculantSpec(1, (0,)), 1, 1)
    with pytest.raises(ValueError):
        check_graph_condition(CirculantSpec(4, (1,)), 0, 1)


def test_construct_distances_examples():
    w = construct_distances(ParamTriple(1, 1, 1))
    assert w.spec.modulus == 4
    assert w.spec.distances == (5,)
    assert w.coloring is None

    w = construct_distances(ParamTriple(3, 1, 2))
    assert w.spec.modulus == 8
    assert w.spec.distances == (1, 11)

    with pytest.raises(Inadmissible):
        construct_distances(ParamTriple(5, 3, 3))


def test_construct_distances_residue_shape():
    w = construct_distances(ParamTriple(3, 1, 2))
    assert len(w.per_prime_residues) == 1
    pp = w.per_prime_residues[0]
    assert (pp.q, pp.t, pp.modulus) == (2, 2, 8)
    assert pp.residues == (1, 3)
    assert len(pp.residues) == 2


def test_construct_distances_congruences_hold():
    # every final distance solves all the per prime congruences
    for (b, c, k) in [(1, 2, 1), (2, 6, 3), (5, 7, 6), (4, 5, 4), (3, 12, 7), (6, 9, 7)]:
        params = ParamTriple(b, c, k)
        if not check_admissible(params).admissible:
            continue
        w = construct_distances(params)
        for j, distance in enumerate(w.spec.distances):
            for pp in w.per_prime_residues:
                assert distance % pp.modulus == pp.residues[j] % pp.modulus


def test_construct_distances_lift_condition():
    for (b, c, k) in [(1, 1, 1), (3, 1, 2), (2, 6, 3), (5, 7, 6), (1, 15, 8)]:
        w = construct_distances(ParamTriple(b, c, k))
        threshold = max(pp.q ** (pp.t + 1) for pp in w.per_prime_residues)
        assert w.spec.max_distance > threshold


def test_period_and_condition_sweep():
    # P is the reduced sum, doubled when even, and the divisibility
    # condition holds for the constructed graph
    for s in range(2, 31):
        for b in range(1, s):
            c = s - b
            for k in range(1, 11):
                params = ParamTriple(b, c, k)
                if not check_admissible(params).admissible:
                    continue
                w = construct_distances(params)
                n = params.reduced_sum
                expected_p = n if n % 2 else 2 * n
                assert w.spec.modulus == expected_p
                assert len(w.spec.distances) == k
                assert check_graph_condition(w.spec, b, c).passed


def test_construct_perfect_coloring_examples():
    w = construct_perfect_coloring(ParamTriple(1, 1, 1))
    assert w.spec.modulus == 4
    assert w.spec.distances == (5,)
    assert w.coloring.colors == "BBWW"
    assert is_perfect_coloring(w.spec, w.coloring)

    w = construct_perfect_coloring(ParamTriple(3, 1, 2))
    assert w.spec.modulus == 8
    assert w.spec.distances == (1, 11)
    assert is_perfect_coloring(w.spec, w.coloring)

    with pytest.raises(BoundViolated):
        construct_perfect_coloring(ParamTriple(4, 3, 2))


def test_construct_perfect_coloring_rejects_non_prime_power_sum():
    with pytest.raises(NotPrimePowerSum):
        construct_perfect_coloring(ParamTriple(5, 7, 6))
    with pytest.raises(NotPrimePowerSum):
        construct_perfect_coloring(ParamTriple(3, 3, 3))


def test_construction_refuses_too_many_distances():
    # admissible, since b + c = 999999999999999989 is prime and 2k + 1 exceeds it; a list
    # of k distances would take all the memory there is
    huge = ParamTriple(1, 999999999999999988, 5 * 10**17)
    assert check_admissible(huge).admissible
    for build in (construct_distances, construct_perfect_coloring):
        with pytest.raises(InputTooLarge):
            build(huge)
        with pytest.raises(InputTooLarge):
            build(ParamTriple(1, 1, MAX_DISTANCES + 1))


def test_theorem_bound_equivalence_small():
    # success exactly on the gcd bound, for prime power sums up to 16
    for s in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for b in range(1, s):
            c = s - b
            for k in range(1, 9):
                params = ParamTriple(b, c, k)
                expected = s <= 2 * k + math.gcd(b, c)
                try:
                    w = construct_perfect_coloring(params)
                except BoundViolated:
                    assert not expected, (b, c, k)
                else:
                    assert expected, (b, c, k)
                    assert is_perfect_coloring(w.spec, w.coloring)


def test_constructed_colorings_found_by_oracle():
    for (b, c, k) in [(1, 1, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2), (2, 6, 3)]:
        w = construct_perfect_coloring(ParamTriple(b, c, k))
        if w.spec.modulus > 16:
            continue
        report = search_colorings(w.spec, b, c)
        assert w.coloring in report.found


def test_witness_document_shape():
    w = construct_perfect_coloring(ParamTriple(3, 1, 2))
    doc = witness_to_document(w)
    assert doc["version"] == 1
    assert doc["P"] == 8
    assert doc["colors"] == "BBWWWWWW"
    assert doc["construction"]["lifted"] == [1, 11]
    assert doc["construction"]["per_prime"] == [
        {"q": 2, "t": 2, "modulus": 8, "residues": [1, 3]}
    ]
    spec, b, c, colors = parse_document(doc)
    assert spec == w.spec and (b, c) == (3, 1) and colors == w.coloring.colors

    bare = witness_to_document(construct_distances(ParamTriple(5, 7, 6)))
    assert "colors" not in bare
    assert bare["construction"]["per_prime"][0]["q"] == 2


def test_residue_multiset_multiplicities():
    # odd prime case: counts follow the stated zero and copy pattern
    params = ParamTriple(2, 1, 1)
    w = construct_distances(params)
    pp = w.per_prime_residues[0]
    assert (pp.q, pp.t) == (3, 1)
    assert pp.residues == (1,)

    # q=2 with even quotient: b+c=8, gcd=2, N=4, t=2, quotient 8/4=2 even
    params = ParamTriple(2, 6, 3)
    w = construct_distances(params)
    pp = w.per_prime_residues[0]
    assert (pp.q, pp.t, pp.modulus) == (2, 2, 8)
    assert pp.residues == (1, 1, 2)


def test_random_admissible_triples_verify():
    rng = random.Random(31)
    done = 0
    while done < 40:
        b = rng.randrange(1, 16)
        c = rng.randrange(1, 16)
        k = rng.randrange(1, 9)
        params = ParamTriple(b, c, k)
        if not check_admissible(params).admissible:
            continue
        w = construct_distances(params)
        assert check_graph_condition(w.spec, b, c).passed
        done += 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: construct_perfect_coloring(ParamTriple(2, 6, 3)),
        lambda: construct_multitiling(Tile((1, 0, 1, 0)), 2),
        lambda: construct_tiling_prime_power(Tile((1, 0, 1, 0)), 1),
        lambda: check_graph_condition(CirculantSpec(8, (1, 11)), 3, 1),
    ],
    ids=[
        "construct_perfect_coloring",
        "construct_multitiling",
        "construct_tiling_prime_power",
        "check_graph_condition",
    ],
)
def test_one_spectrum_per_pipeline_call(monkeypatch, call):
    cyclotomic = importlib.import_module("cyclotile.cyclotomic")
    real = cyclotomic.divisor_spectrum
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    # every module reference, so a second path through another module counts too
    for module in (admissibility, coloring, cyclotomic, tiling):
        if hasattr(module, "divisor_spectrum"):
            monkeypatch.setattr(module, "divisor_spectrum", counting)
    call()
    assert len(calls) == 1
