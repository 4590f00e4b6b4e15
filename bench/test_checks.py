"""Tests of the benchmark's reference checks. Run: python3 -m pytest -q bench/test_checks.py"""

import random

import sympy

import checks


def test_readme_admissibility_example():
    assert checks.admissibility(5, 3, 2) == (False, [(2, 3, 5)])
    assert checks.admissibility(2, 6, 3) == (True, [])


def test_readme_construction_example():
    doc = {"version": 1, "P": 8, "distances": [1, 1, 10], "b": 2, "c": 6, "colors": "BBBWBBBW"}
    assert checks.period(2, 6) == 8
    assert checks.construct_defect(doc, 2, 6, 3, prime_power_sum=True) is None
    assert checks.perfect_parameters(8, [1, 1, 10], "BBBWBBBW") == (2, 6)


def test_defects_are_reported():
    doc = {"P": 8, "distances": [1, 1, 10], "b": 2, "c": 6, "colors": "BBBWBBWW"}
    assert checks.construct_defect(doc, 2, 6, 3, prime_power_sum=True) is not None
    assert checks.construct_defect(dict(doc, P=16), 2, 6, 3, prime_power_sum=True) is not None
    assert checks.construct_defect(dict(doc, distances=[1, 10]), 2, 6, 3, True) is not None
    # distances 1, 1, 1 on Z/8: no Phi_2, Phi_4 or Phi_8 factor, so N = 4 does not divide 1
    assert checks.distance_certificate_defect(dict(doc, distances=[1, 1, 1]), 2, 6, 3) is not None
    assert checks.perfect_parameters(8, [1, 1, 10], "BBBWBBWW") is None


def test_convolution_matches_naive():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.randrange(1, 40)
        a = [rng.randrange(-5, 9) for _ in range(p)]
        b = [rng.randrange(-3, 4) for _ in range(p)]
        naive = [sum(a[(g - h) % p] * b[h] for h in range(p)) for g in range(p)]
        assert checks.cyclic_convolution(a, b) == naive


def test_fold_rule_agrees_with_sympy():
    x = sympy.symbols("x")
    rng = random.Random(11)
    for p in (8, 9, 12, 16, 18, 25, 27, 36):
        for q, e in sympy.factorint(p).items():
            for t in range(1, e + 1):
                phi = sympy.Poly(sympy.cyclotomic_poly(q**t, x), x)
                for _ in range(6):
                    values = [rng.randrange(-2, 3) for _ in range(p)]
                    if rng.random() < 0.5:  # a multiple of Phi_{q^t}, folded onto Z/P
                        mult = [0] * p
                        for i, cf in enumerate(reversed(phi.all_coeffs())):
                            for j, v in enumerate(values[: p - q**t + 1]):
                                mult[(i + j) % p] += int(cf) * v
                        values = mult
                    mask = sympy.Poly(list(reversed(values)) or [0], x)
                    expect = mask.is_zero or mask.rem(phi).is_zero
                    assert checks.prime_power_cyclotomic_divides(values, q, t) == expect


def test_multitiling_checks():
    interval = [1, 1, 1, 0, 0, 0]
    assert checks.multitiling_exists(interval, 1)
    assert checks.is_multitiling(interval, [1, 0, 0, 1, 0, 0], 1)
    assert not checks.is_multitiling(interval, [1, 1, 0, 0, 0, 0], 1)
    assert not checks.multitiling_exists([1, 1, 1, 0], 1)  # no Phi_2 or Phi_4 factor, sum 3


def test_census_checks():
    # README search example: P = 8, distances 1, 2; the census is made here by brute force
    census = {}
    for mask in range(2**8):
        colors = "".join("B" if mask >> i & 1 else "W" for i in range(8))
        bc = checks.perfect_parameters(8, [1, 2], colors)
        if bc is not None:
            census.setdefault(bc, []).append(colors)
    assert "BWBWBWBW" in census[(2, 2)]
    assert checks.census_defect(8, [1, 2], census) is None
    assert checks.census_defect(8, [1, 2], {}) is not None
    # without both alternating colourings the bucket is still closed and self-complementary
    partial = dict(census)
    partial[(2, 2)] = [col for col in census[(2, 2)] if col not in ("BWBWBWBW", "WBWBWBWB")]
    assert checks.census_defect(8, [1, 2], partial) is not None
    assert checks.reflect("BBWW") == "BWWB"
    assert checks.rotate("BBWW") == "BWWB"
    assert checks.complement("BBWW") == "WWBB"
