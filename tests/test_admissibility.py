"""Parameter admissibility and the constructive distance pipeline."""

import importlib
import itertools
import math
import random
import sys

import pytest

import cyclotile
from cyclotile import admissibility, coloring, tiling
from cyclotile.cli import _table_rows
from cyclotile.admissibility import (
    MAX_DISTANCES,
    ParamTriple,
    check_admissible,
    check_graph_condition,
    construct_distances,
    construct_perfect_coloring,
    witness_to_document,
)
from cyclotile.coloring import CirculantSpec, is_perfect_coloring, parse_document, structured_tile
from cyclotile.errors import Inadmissible, InputTooLarge
from cyclotile.oracle import search_colorings
from cyclotile.tiling import (
    Tile,
    construct_multitiling,
    construct_tiling_prime_power,
    multitiling_exists,
)
from reference import is_prime_power, lift_period_by_period, paper_residues


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
    assert verdict.spectrum.prime_power_product == 2
    assert ParamTriple(1, 1, 1).reduced_sum == 2

    verdict = check_graph_condition(CirculantSpec(3, (1,)), 1, 1)
    assert not verdict.passed
    assert verdict.spectrum.prime_power_product == 1

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
        spec = CirculantSpec(p, distances)
        verdict = check_graph_condition(spec, b, c)
        n = ParamTriple(b, c, spec.k).reduced_sum
        assert n == (b + c) // math.gcd(b, c)
        spectrum = verdict.spectrum
        assert verdict.passed == (spectrum.prime_power_product % n == 0)
        # the tile sums to b + c > 0, so the product of all divisors at 1 is the prime-power one
        assert spectrum.modulus == p and 1 not in spectrum.divisors


def test_graph_condition_is_the_existence_verdict_of_the_structured_tile():
    # one verdict for the one test: exact exactly when the group order has one prime factor
    rng = random.Random(19)
    orders = [2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64] + list(range(2, 65))
    for i in range(400):
        p = orders[i % len(orders)]
        distances = [rng.randrange(0, 3 * p) for _ in range(rng.randrange(1, 5))]
        if i % 3 == 0:
            distances.append(0)
        if i % 4 == 0:
            distances.append(distances[0])  # a repeated distance
        spec = CirculantSpec(p, tuple(distances))
        b, c = rng.randrange(1, 9), rng.randrange(1, 9)
        verdict = check_graph_condition(spec, b, c)
        assert verdict == multitiling_exists(structured_tile(spec, b, c), c), (spec, b, c)
        assert verdict.exact == is_prime_power(p), p


def count_factorize(monkeypatch) -> list:
    """Patch factorize in every module that binds it; the numbers it is called with.

    The spectrum plans are cleared first, so each group order is factorized afresh.
    """
    # the name cyclotile.cyclotomic is the function, so the modules are reached through sys.modules
    sys.modules["cyclotile.cyclotomic"]._spectrum_plan.cache_clear()
    original = sys.modules["cyclotile.arith"].factorize
    calls = []

    def counting(n):
        calls.append(n)
        return original(n)

    patched = [name for name, module in list(sys.modules.items())
               if name.startswith("cyclotile.") and getattr(module, "factorize", None) is original]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "factorize", counting)
    assert "cyclotile.cyclotomic" in patched and "cyclotile.admissibility" in patched
    return calls


@pytest.mark.parametrize("triple", [(1, 255, 128), (3, 7, 6), (2, 10, 7), (3, 3, 2)])
def test_a_construction_factorizes_a_few_numbers_only(monkeypatch, triple):
    # N once, in the admissibility verdict that the residues and the prime-power decision
    # read, and P once, in the spectrum plan whose primes the tiling and the exact flag read;
    # a second construction reuses the plan, so it factorizes N only
    params = ParamTriple(*triple)
    calls = count_factorize(monkeypatch)
    witness = construct_perfect_coloring(params)
    assert calls == [params.reduced_sum, witness.spec.modulus]
    calls.clear()
    assert construct_perfect_coloring(params) == witness
    assert calls == [params.reduced_sum]
    if triple == (3, 3, 2):
        # gcd 3, N = 2 and P = 4 are prime powers, b + c = 6 is not: only the certificate
        assert witness.coloring is None and witness == construct_distances(params)


def test_a_multitiling_factorizes_its_group_order_once(monkeypatch):
    calls = count_factorize(monkeypatch)
    witness = construct_multitiling(Tile((1, 1, 1) + (0,) * 9), 3)
    assert calls == [12] and witness.multiplier == 3  # m d(1) / masksum = 3 * 3 / 3
    # a rotation of the tile, on the same group, reuses the plan of P = 12 and factorizes nothing
    assert construct_multitiling(Tile((0, 1, 1, 1) + (0,) * 8), 3).multiplier == 3
    assert calls == [12]


def test_prime_power_sum_decision_matches_is_prime_power():
    # b + c = g (b + c)/g with g = gcd(b, c): every gcd of every sum up to 300, both ways round
    for s in range(2, 301):
        for g in (g for g in range(1, s) if s % g == 0):
            for b, c in {(g, s - g), (s - g, g)}:
                k = next(k for k in range(1, s) if check_admissible(ParamTriple(b, c, k)))
                witness = construct_perfect_coloring(ParamTriple(b, c, k))
                assert (witness.coloring is not None) == is_prime_power(s), (b, c, k)
    # the table reads the same decision off each row's verdict
    for row in _table_rows(3, 100):
        assert row["prime_power_sum"] == is_prime_power(row["b"] + row["c"]), row


def test_a_table_factorizes_once_per_sum_and_gcd(monkeypatch):
    # rows with one b + c and one gcd(b, c) share N and so its admissibility verdict, which
    # also decides the prime-power sum: N is factorized at the first such row
    calls = count_factorize(monkeypatch)
    rows = _table_rows(3, 40)
    firsts = {}
    for row in rows:
        firsts.setdefault((row["b"] + row["c"], math.gcd(row["b"], row["c"])), row["N"])
    assert len(rows) == 780 and len(calls) == len(firsts) == 118
    assert calls == list(firsts.values())


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
        assert max(w.spec.distances) > threshold


def test_lift_in_one_step_matches_the_period_by_period_loop():
    # every admissible triple with k <= 12 and b, c <= 2k, and the two prime sums at the
    # cap's edge, where the loop would run b + c times; below the lift each distance is
    # its own residue modulo the period
    triples = [(b, c, k) for k in range(1, 13) for b in range(1, 2 * k + 1)
               for c in range(1, 2 * k + 1) if check_admissible(ParamTriple(b, c, k))]
    lifted = 0
    for b, c, k in triples + [(1, 131070, 65535), (1, 199998, 99999)]:
        params = ParamTriple(b, c, k)
        w = admissibility._lifted_distances(params, admissibility._admitted(params))
        period = w.spec.modulus
        past = max(pp.q ** (pp.t + 1) for pp in w.per_prime_residues)
        residues = [d % period for d in w.spec.distances]
        assert list(w.spec.distances) == lift_period_by_period(residues, period, past), params
        lifted += residues != list(w.spec.distances)
    assert len(triples) > 1000 and lifted > 1000


def test_construct_distances_are_least_solutions_but_the_lifted_one():
    # each distance is the least nonnegative solution of its congruences, found here by
    # scanning one period; only the largest is then lifted by whole periods
    multi_prime = 0
    for b, c in [(5, 7), (1, 14), (2, 13), (7, 23), (11, 19), (1, 5), (3, 7)]:
        k = next(k for k in range(1, 60) if check_admissible(ParamTriple(b, c, k)).admissible)
        w = construct_distances(ParamTriple(b, c, k + 2))
        period, per_prime = w.spec.modulus, w.per_prime_residues
        least = [next(x for x in range(period)
                      if all(x % pp.modulus == pp.residues[j] % pp.modulus for pp in per_prime))
                 for j in range(k + 2)]
        lifted = least.index(max(least))
        for j, distance in enumerate(w.spec.distances):
            assert distance % period == least[j], (b, c, j)
            if j != lifted:
                assert distance == least[j], (b, c, j)
        multi_prime += len(per_prime) > 1
    assert multi_prime >= 5


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

    with pytest.raises(Inadmissible) as exc:
        construct_perfect_coloring(ParamTriple(4, 3, 2))
    assert exc.value.verdict == check_admissible(ParamTriple(4, 3, 2))


def test_construct_perfect_coloring_on_a_non_prime_power_sum_is_the_distance_certificate():
    for params in (ParamTriple(5, 7, 6), ParamTriple(3, 3, 3)):
        w = construct_perfect_coloring(params)
        assert w.coloring is None
        assert w == construct_distances(params)


def test_admissibility_is_the_gcd_bound_on_prime_power_sums():
    # for b + c = q^t the inequality at the one prime of N is the paper's
    # sufficient bound b + c <= 2k + gcd(b, c), written out here on its own
    checked = 0
    for s in range(2, 448):
        p = next(d for d in range(2, s + 1) if s % d == 0)  # the least prime of s
        rest = s
        while rest % p == 0:
            rest //= p
        if rest != 1:
            continue
        for b in range(1, s):
            c = s - b
            for k in range(1, 13):
                verdict = check_admissible(ParamTriple(b, c, k))
                assert verdict.admissible == (s <= 2 * k + math.gcd(b, c)), (b, c, k)
                checked += 1
    assert checked > 100_000


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
                except Inadmissible as exc:
                    assert exc.verdict == check_admissible(params)
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


def test_residues_match_the_paper_cases():
    # the one half-range rule against the paper's three cases, at the least admissible k,
    # a little above it and at b + c
    for s in range(2, 161):
        for b in range(1, s):
            prime_powers = check_admissible(ParamTriple(b, s - b, 1)).prime_powers
            least = max(1, max((s - s // q**t + 1) // 2 for q, t in prime_powers))
            for k in (least, least + 1, least + 2, s):
                params = ParamTriple(b, s - b, k)
                assert check_admissible(params)
                got = admissibility._per_prime_residues(params, prime_powers)
                assert [(pp.q, pp.t) for pp in got] == list(prime_powers)
                assert [(pp.modulus, list(pp.residues)) for pp in got] == [
                    paper_residues(s, k, q, t) for q, t in prime_powers], params


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

    # every module reference, so a second path through another module counts too, and the
    # package namespace, where tiling looks the spectrum up
    for module in (cyclotile, admissibility, coloring, cyclotomic, tiling):
        if hasattr(module, "divisor_spectrum"):
            monkeypatch.setattr(module, "divisor_spectrum", counting)
    call()
    assert len(calls) == 1
