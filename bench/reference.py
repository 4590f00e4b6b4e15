"""Single-operation reference timings of cyclotile's layers, each in a fresh process.

Usage: python3 bench/reference.py

Every figure is timed in its own interpreter, so caches start cold, and
the median of three repeats is printed with the range. The inputs are
fixed: they re-measure the seed-time table of the ROADMAP (cold
cyclotomic polynomials, the P=2048 and P=4620 constructions and checks,
the oracles at P=16 and P=20) plus a bare CLI call.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REPEATS = 3


def _witness_2048():
    from cyclotile import ParamTriple, construct_perfect_coloring

    return construct_perfect_coloring(ParamTriple(1, 1023, 512))


def _prepare(name: str):
    """(setup, timed call) for one figure; setup runs before the clock starts."""
    import cyclotile as ct

    if name == "cyclotomic(2310) cold":
        return lambda: ct.cyclotomic(2310)
    if name == "cyclotomic(4620) cold":
        return lambda: ct.cyclotomic(4620)
    if name == "construct_perfect_coloring(1, 1023, 512), P=2048":
        return _witness_2048
    if name == "construct_distances(1, 2309, 1155), P=4620":
        return lambda: ct.construct_distances(ct.ParamTriple(1, 2309, 1155))
    if name == "is_perfect_coloring, P=2048, k=512":
        w = _witness_2048()
        return lambda: ct.is_perfect_coloring(w.spec, w.coloring)
    if name == "verify_multitiling, P=2048":
        w = _witness_2048()
        u = ct.structured_tile(w.spec, 1, 1023)
        v = ct.coloring_to_tiling(w.coloring)
        return lambda: ct.verify_multitiling(u, v, 1023)
    if name == "census_colorings, P=16, distances 1,3,5":
        return lambda: ct.census_colorings(ct.CirculantSpec(16, (1, 3, 5)))
    if name == "census_colorings, P=20, distances 1,3,7":
        return lambda: ct.census_colorings(ct.CirculantSpec(20, (1, 3, 7)))
    if name == "search_colorings, P=20, distances 1,3,7, (b, c) = (2, 4)":
        return lambda: ct.search_colorings(ct.CirculantSpec(20, (1, 3, 7)), 2, 4)
    raise KeyError(name)


FIGURES = [
    "cyclotomic(2310) cold",
    "cyclotomic(4620) cold",
    "construct_perfect_coloring(1, 1023, 512), P=2048",
    "construct_distances(1, 2309, 1155), P=4620",
    "is_perfect_coloring, P=2048, k=512",
    "verify_multitiling, P=2048",
    "census_colorings, P=16, distances 1,3,5",
    "census_colorings, P=20, distances 1,3,7",
    "search_colorings, P=20, distances 1,3,7, (b, c) = (2, 4)",
    "cyclotile params check --b 5 --c 3 --k 2 (process)",
]


def time_one(name: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    if name.endswith("(process)"):
        argv = name[len("cyclotile "):-len(" (process)")].split()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "cyclotile.cli"] + argv, env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=False)
        return time.perf_counter() - start
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", name], env=env,
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        call = _prepare(args.one)
        start = time.perf_counter()
        call()
        print(time.perf_counter() - start)
        return 0
    print("| Figure | median s | range s |\n|---|---|---|")
    for name in FIGURES:
        times = [time_one(name) for _ in range(REPEATS)]
        print("| %s | %.3f | %.3f-%.3f |" % (name, statistics.median(times), min(times), max(times)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
