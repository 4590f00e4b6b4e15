"""Acceptance suite: one test per published criterion, each with a budget.

Every test prints a single PASS/FAIL line on the real stdout so the
result survives output capture, then asserts both the mathematical
content and the runtime budget.
"""

import itertools
import json
import math
import time

from cyclotile.admissibility import (
    ParamTriple,
    check_admissible,
    check_graph_condition,
    construct_distances,
    construct_perfect_coloring,
    witness_to_document,
)
from cyclotile.cli import run
from cyclotile.coloring import CirculantSpec, is_perfect_coloring, structured_tile, tiling_to_coloring
from cyclotile.cyclotomic import cyclotomic
from cyclotile.errors import Inadmissible
from cyclotile.oracle import census_colorings, search_colorings
from cyclotile.polyring import IntPolynomial
from cyclotile.tiling import Tile, construct_tiling_prime_power, verify_multitiling
from reference import coefficient_sum, cyclic_fold

REFUTED = {
    2: [(4, 3)],
    3: [(5, 3), (5, 4), (6, 4), (6, 5)],
    4: [(6, 5), (7, 4), (8, 3), (7, 5), (7, 6), (8, 5), (8, 6), (8, 7)],
}


def _report(capsys, number, failures, elapsed, budget, detail):
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    with capsys.disabled():
        print("ACCEPTANCE %d: %s - %s (%.2fs, budget %.0fs)"
              % (number, status, detail, elapsed, budget))
    assert not failures, failures[:5]
    assert elapsed < budget, "budget exceeded: %.2fs" % elapsed


def test_acceptance_1_refuted_parameter_tuples(capsys):
    # the checker, driven through the CLI, refutes exactly the known
    # bad tuples on the grid 1 <= c <= b <= 2k for k = 2, 3, 4
    t0 = time.time()
    failures = []
    for k, expected in REFUTED.items():
        found = []
        for b in range(1, 2 * k + 1):
            for c in range(1, b + 1):
                code = run(["params", "check",
                            "--b", str(b), "--c", str(c), "--k", str(k)])
                out = capsys.readouterr().out
                doc = json.loads(out)
                if doc["admissible"]:
                    if code != 0:
                        failures.append(("exit", b, c, k, code))
                else:
                    if code != 1:
                        failures.append(("exit", b, c, k, code))
                    if not doc["violations"]:
                        failures.append(("no witness", b, c, k))
                    for v in doc["violations"]:
                        if not (isinstance(v["q"], int) and isinstance(v["t"], int)):
                            failures.append(("bad witness", b, c, k))
                    found.append((b, c))
        if sorted(found) != sorted(expected):
            failures.append(("set mismatch", k, sorted(found), sorted(expected)))
    elapsed = time.time() - t0
    _report(capsys, 1, failures, elapsed, 1.0,
            "13 refuted tuples reproduced exactly, each with a (q, t) witness")


def test_acceptance_2_constructive_bound_sweep(capsys, tmp_path):
    # construction succeeds exactly on the gcd bound; every witness
    # survives the direct check and the CLI verifier
    t0 = time.time()
    failures = []
    combos = 0
    successes = 0
    for s in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for b in range(1, s):
            c = s - b
            for k in range(1, 9):
                combos += 1
                expected = s <= 2 * k + math.gcd(b, c)
                try:
                    witness = construct_perfect_coloring(ParamTriple(b, c, k))
                except Inadmissible as exc:
                    if expected or exc.verdict.admissible:
                        failures.append(("missing", b, c, k))
                    continue
                if not expected:
                    failures.append(("spurious", b, c, k))
                    continue
                successes += 1
                if not is_perfect_coloring(witness.spec, witness.coloring):
                    failures.append(("imperfect", b, c, k))
                path = tmp_path / ("w%d_%d_%d.json" % (b, c, k))
                path.write_text(json.dumps(witness_to_document(witness)))
                code = run(["verify", str(path)])
                capsys.readouterr()
                if code != 0:
                    failures.append(("verify", b, c, k, code))
    elapsed = time.time() - t0
    _report(capsys, 2, failures, elapsed, 30.0,
            "%d combos, %d witnesses built, all verified" % (combos, successes))


def _distance_multisets(p):
    return [(l,) for l in range(p)] + list(
        itertools.combinations_with_replacement(range(p), 2))


def test_acceptance_3_necessity_against_oracle(capsys):
    # wherever exhaustive search finds any perfect colouring, the
    # divisibility condition holds; census buckets are search results
    # (the equality is itself spot-checked at small P)
    t0 = time.time()
    failures = []
    witnesses = 0
    for p in range(2, 13):
        for distances in _distance_multisets(p):
            spec = CirculantSpec(p, distances)
            census = census_colorings(spec)
            if p <= 5:
                for b in range(1, 7):
                    for c in range(1, 7):
                        direct = list(search_colorings(spec, b, c).found)
                        if census.get((b, c), []) != direct:
                            failures.append(("census mismatch", p, distances, b, c))
            for (b, c), cols in census.items():
                if not (1 <= b <= 6 and 1 <= c <= 6) or not cols:
                    continue
                witnesses += 1
                if not check_graph_condition(spec, b, c).passed:
                    failures.append(("condition fails", p, distances, b, c))
    elapsed = time.time() - t0
    _report(capsys, 3, failures, elapsed, 300.0,
            "%d populated parameter pairs, zero counterexamples" % witnesses)


def test_acceptance_4_sufficiency_on_prime_powers(capsys):
    # on prime power orders the condition is constructive: the built
    # tiling is a perfect colouring the oracle also finds
    t0 = time.time()
    failures = []
    constructed = 0
    for p in (2, 3, 4, 5, 7, 8, 9, 16):
        for distances in _distance_multisets(p):
            spec = CirculantSpec(p, distances)
            passing = [
                (b, c)
                for b in range(1, 7)
                for c in range(1, 7)
                if check_graph_condition(spec, b, c).passed
            ]
            if not passing:
                continue
            census = census_colorings(spec)
            for (b, c) in passing:
                u = structured_tile(spec, b, c)
                try:
                    v = construct_tiling_prime_power(u, c)
                except Exception as exc:
                    failures.append(("construction", p, distances, b, c, repr(exc)))
                    continue
                col = tiling_to_coloring(v, b, c)
                if not is_perfect_coloring(spec, col):
                    failures.append(("imperfect", p, distances, b, c))
                if col not in census.get((b, c), []):
                    failures.append(("not in oracle list", p, distances, b, c))
                constructed += 1
    elapsed = time.time() - t0
    _report(capsys, 4, failures, elapsed, 120.0,
            "%d passing combos all yield oracle-confirmed colourings" % constructed)


def test_acceptance_5_cyclotomic_identities(capsys):
    t0 = time.time()
    failures = []
    for n in range(1, 301):
        product = IntPolynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic(d)
        if product.coeffs != IntPolynomial([-1] + [0] * (n - 1) + [1]).coeffs:
            failures.append(("product", n))
        value = sum(cyclotomic(n).coeffs)
        m, base = n, None
        if n > 1:
            p = 2
            primes = []
            while m > 1:
                if m % p == 0:
                    primes.append(p)
                    while m % p == 0:
                        m //= p
                p += 1
            base = primes[0] if len(primes) == 1 else None
            expected = base if base is not None else 1
            if value != expected:
                failures.append(("value", n, value))
    elapsed = time.time() - t0
    _report(capsys, 5, failures, elapsed, 10.0,
            "divisor products and values at 1 exact for n up to 300")


def test_acceptance_6_convolution_polynomial_equivalence(capsys):
    import random

    t0 = time.time()
    failures = []
    rng = random.Random(99)
    agreements = 0
    for i in range(1000):
        p = rng.randrange(1, 21)
        u = Tile(tuple(rng.randrange(-3, 4) for _ in range(p)))
        v = Tile(tuple(rng.randrange(-3, 4) for _ in range(p)))
        if i % 5 == 0:
            # plant instances that actually tile so the true branch is exercised
            g = rng.randrange(p)
            u = Tile(tuple(1 if h == g else 0 for h in range(p)))
            m = rng.randrange(-3, 4)
            v = Tile((m,) * p)
        else:
            m = rng.randrange(-6, 7)
        direct = verify_multitiling(u, v, m)
        product = IntPolynomial(u.values) * IntPolynomial(v.values)
        residue = cyclic_fold(coefficient_sum(product.coeffs, [-m] * p), p)
        if direct != (not any(residue)):
            failures.append((u.values, v.values, m))
        else:
            agreements += 1
    elapsed = time.time() - t0
    _report(capsys, 6, failures, elapsed, 5.0,
            "%d random instances, verdicts identical" % agreements)


def test_acceptance_7_construction_period_and_condition(capsys):
    t0 = time.time()
    failures = []
    built = 0
    for s in range(2, 31):
        for b in range(1, s):
            c = s - b
            for k in range(1, 11):
                params = ParamTriple(b, c, k)
                if not check_admissible(params).admissible:
                    continue
                witness = construct_distances(params)
                n = params.reduced_sum
                expected_p = n if n % 2 else 2 * n
                if witness.spec.modulus != expected_p:
                    failures.append(("period", b, c, k, witness.spec.modulus))
                if not check_graph_condition(witness.spec, b, c).passed:
                    failures.append(("condition", b, c, k))
                built += 1
    elapsed = time.time() - t0
    _report(capsys, 7, failures, elapsed, 60.0,
            "%d admissible triples, period and condition hold throughout" % built)
