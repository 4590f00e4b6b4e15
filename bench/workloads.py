"""The four benchmark workloads: inputs from a seed, one round of operations, checks.

Every workload is a closed loop with one caller. A round is a fixed list
of operations drawn from the seed once; a run repeats whole rounds, so
the share of each kind of operation, and of known failures, is the same
in every run. Within a round each operation class has a fixed size (group
order, number of distances, tile length) and the seed picks the values,
so that different seeds give comparable work.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
import time
from math import gcd

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass
class Op:
    kind: str
    args: tuple
    key: str = ""  # names the operation within its round
    known_fault: bool = False  # fails today because of a fault in the program


@dataclasses.dataclass
class Context:
    root: str  # checkout root
    workdir: str  # scratch space inside the checkout
    traced: bool = False
    tracer: object = None
    trace_parts: list = dataclasses.field(default_factory=list)
    spans: list = dataclasses.field(default_factory=list)
    startup_s: float = 0.0
    peak_rss_kb: int = 0
    op_serial: int = 0

    def env(self) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def factor_small(n: int) -> dict[int, int]:
    """Trial division, for the sums up to ~10^6 the generators pick from; it keeps
    sympy (~36 MB) out of the measured process, whose peak RSS is a metric."""
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def min_admissible_k(b: int, c: int) -> int:
    """Least k with b + c <= 2k + (b+c)/q^t for every prime power q^t of N."""
    s = b + c
    need = max(s - s // q**t for q, t in factor_small(s // gcd(b, c)).items())
    return max(1, -(-need // 2))


def coprime_split(rng: random.Random, s: int) -> tuple[int, int]:
    """A seeded b + c = s with gcd(b, c) = 1, so that N = s."""
    while True:
        b = rng.randrange(1, s)
        if gcd(b, s) == 1:
            return b, s - b


class Workload:
    """One round of operations from a seed (`setup`), one operation (`run`), and the
    reference check of its output (`check`, None when it holds)."""

    name = ""
    in_process = False  # operations run in this process, not in CLI children

    def failed(self, op: Op, out) -> bool:
        """Whether the operation failed the way a known fault of the program makes it fail."""
        return False

    def states(self, op: Op) -> int:
        """Colour or tile states the operation enumerates."""
        return 0


# ---------------------------------------------------------------- CLI processes

@dataclasses.dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(ctx: Context, argv: list[str]) -> CliResult:
    """One fresh `cyclotile` process; records its peak RSS and, when traced, its spans."""
    ctx.op_serial += 1
    if ctx.traced:
        dump = os.path.join(ctx.workdir, "trace-%d.json" % ctx.op_serial)
        cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), dump,
               str(ctx.op_serial)] + argv
    else:
        cmd = [sys.executable, "-m", "cyclotile.cli"] + argv
    err_path = os.path.join(ctx.workdir, "stderr.txt")
    with open(err_path, "w+b") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=ctx.env(),
                                cwd=ctx.root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    ctx.peak_rss_kb = max(ctx.peak_rss_kb, usage.ru_maxrss)
    if ctx.traced:
        with open(dump, encoding="utf-8") as handle:
            part = json.load(handle)
        os.unlink(dump)
        ctx.trace_parts.append(part["export"])
        ctx.startup_s += sum(t - spawned for t in part["export"]["run_entered"][:1])
        ctx.spans.append(part["spans"])
    return CliResult(proc.returncode, out.decode("utf-8", "replace"), stderr)


def cold_start_probe(ctx: Context) -> None:
    """One fresh CLI call in set-up, so that import-time work shows in setup_s."""
    res = run_cli(ctx, ["params", "check", "--b", "5", "--c", "3", "--k", "2"])
    if res.code != 1:
        raise RuntimeError("cold-start probe exited %d: %s" % (res.code, res.stderr.strip()))


# ---------------------------------------------------------------- construct

# One operation per sum; gcd(b, c) = 1 keeps P fixed per class:
# P = 512, 729, 1155, 1200, 1980, 2048, 4600. (P = 4620 alone takes ~4 s, which
# would leave three rounds in a run; bench/reference.py times it.)
CONSTRUCT_SUMS = [(256, True), (729, True), (1155, False), (600, False), (990, False),
                  (1024, True), (2300, False)]


class Construct(Workload):
    name = "construct"

    def setup(self, rng: random.Random, ctx: Context) -> list[Op]:
        ops = []
        for s, prime_power in CONSTRUCT_SUMS:
            b, c = coprime_split(rng, s)
            k = min_admissible_k(b, c) + rng.randrange(8)
            ops.append(Op("construct", (b, c, k, prime_power), "P=%d" % checks.period(b, c)))
        cold_start_probe(ctx)
        return ops

    def run(self, op: Op, ctx: Context):
        b, c, k, _ = op.args
        return run_cli(ctx, ["construct", "--b", str(b), "--c", str(c), "--k", str(k)])

    def check(self, op: Op, out: CliResult, round_outs: dict):
        b, c, k, prime_power = op.args
        if out.code != 0:
            return "exit %d: %s" % (out.code, out.stderr.strip()[-200:])
        return checks.construct_defect(json.loads(out.stdout), b, c, k, prime_power)


# ---------------------------------------------------------------- verify

# Documents with JSON booleans in integer fields; the same in every run.
BOOLEAN_DOCUMENTS = [
    {"version": 1, "P": 8, "distances": [1, 1, 10], "b": True, "c": 6, "colors": "BBBWBBBW"},
    {"version": 1, "P": 8, "distances": [True, 1, 10], "b": 2, "c": 6, "colors": "BBBWBBBW"},
    {"version": 1, "P": True, "distances": [0], "b": 1, "c": 1, "colors": "B"},
]


def periodic_witness(rng: random.Random, base, p: int, k: int) -> dict:
    """Repeat a perfect colouring of Z/P0 around Z/P and pad the distances with
    multiples of P0, which join equal colours and so keep (b, c)."""
    p0, distances, b, c, colors = base
    padded = list(distances) + [p0 * rng.randrange(1, p // p0) for _ in range(k - len(distances))]
    rng.shuffle(padded)
    return {"version": 1, "P": p, "distances": padded, "b": b, "c": c, "colors": colors * (p // p0)}


class Verify(Workload):
    name = "verify"

    def setup(self, rng: random.Random, ctx: Context) -> list[Op]:
        from cyclotile import ParamTriple, construct_perfect_coloring

        bases = []
        for s in (8, 16, 32):  # b odd, so P0 = 2s divides every P below
            b = rng.randrange(1, s, 2)
            k = min_admissible_k(b, s - b) + rng.randrange(3)
            w = construct_perfect_coloring(ParamTriple(b, s - b, k))
            bases.append((w.spec.modulus, w.spec.distances, b, s - b, w.coloring.colors))
        docs = [("perfect", periodic_witness(rng, rng.choice(bases), p, p // 4))
                for p in (256, 512, 1024, 2048)]
        for p, label in ((512, "flip"), (2048, "flip"), (1024, "swap")):
            doc = periodic_witness(rng, rng.choice(bases), p, p // 4)
            if label == "flip":
                g = rng.randrange(p)
                doc["colors"] = doc["colors"][:g] + checks.complement(doc["colors"][g]) + doc["colors"][g + 1:]
            else:
                doc["b"], doc["c"] = doc["c"], doc["b"]
            docs.append((label, doc))
        docs.append(("random", {
            "version": 1, "P": 2048, "distances": [rng.randrange(1, 2048) for _ in range(512)],
            "b": rng.randrange(1, 1024), "c": rng.randrange(1, 1024),
            "colors": "".join(rng.choice("BW") for _ in range(2048))}))
        ops = []
        for i, (label, doc) in enumerate(docs):
            path = os.path.join(ctx.workdir, "doc-%d.json" % i)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            perfect = checks.coloring_defect(doc["P"], doc["distances"], doc["b"], doc["c"],
                                             doc["colors"]) is None
            ops.append(Op("verify", (path, doc, perfect), "%s P=%d" % (label, doc["P"])))
        for i, doc in enumerate(BOOLEAN_DOCUMENTS):
            path = os.path.join(ctx.workdir, "boolean-%d.json" % i)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            ops.append(Op("verify", (path, doc, None), "boolean-%d" % i, known_fault=True))
        cold_start_probe(ctx)
        return ops

    def run(self, op: Op, ctx: Context):
        return run_cli(ctx, ["verify", op.args[0]])

    def failed(self, op: Op, out: CliResult) -> bool:
        # a JSON boolean is not an integer: the document is malformed, exit 2
        return op.known_fault and out.code != 2

    def check(self, op: Op, out: CliResult, round_outs: dict):
        _, doc, perfect = op.args
        if op.known_fault:
            return None
        want = {"kind": "coloring", "P": doc["P"], "b": doc["b"], "c": doc["c"], "perfect": perfect}
        if out.code != (0 if perfect else 1):
            return "exit %d, expected %d: %s" % (out.code, 0 if perfect else 1, out.stderr.strip()[-200:])
        got = json.loads(out.stdout)
        return None if got == want else "printed %s, expected %s" % (got, want)


# ---------------------------------------------------------------- search

# (P, base distances, which oracles) per graph; a graph's census comes first in the
# round. Each graph has a perfect colouring of period 2, 3 or 5. No operation takes
# much over half a second, so that pace samples (bench/run.py) bracket each closely.
SEARCH_GRAPHS = [(14, (1, 2, 4), ("census", "search", "tilings")),
                 (15, (1, 3, 5), ("census", "search")),
                 (16, (1, 3, 6), ("census", "search", "tilings")),
                 (18, (1, 4), ("census",))]


def periodic_target(rng: random.Random, p: int, distances) -> tuple[int, int]:
    """A (b, c) that some colouring of period at most 6 makes perfect, preferring b != c.
    The census check requires that colouring in the (b, c) bucket, so the search for
    (b, c) has at least one hit."""
    found = sorted(checks.periodic_colourings(p, distances))
    unequal = [bc for bc in found if bc[0] != bc[1]]
    return rng.choice(unequal or found)


class Search(Workload):
    name = "search"
    in_process = True

    def setup(self, rng: random.Random, ctx: Context) -> list[Op]:
        import cyclotile

        ops = []
        for p, base, oracles in SEARCH_GRAPHS:
            # the seed relabels the base graph by a unit of Z/P: every seed searches an
            # isomorphic graph, so the work per round does not depend on the seed
            unit = rng.choice([u for u in range(1, p) if gcd(u, p) == 1])
            distances = tuple(sorted(unit * l % p for l in base))
            b, c = periodic_target(rng, p, distances)
            spec = cyclotile.CirculantSpec(p, distances)
            tile = cyclotile.Tile(tuple(checks.structured_mask(p, distances, b, c)))
            for oracle in oracles:
                ops.append(Op(oracle, (spec, b, c, tile), "%s P=%d" % (oracle, p)))
        cold_start_probe(ctx)
        cyclotile.census_colorings(cyclotile.CirculantSpec(8, (1, 2)))  # warm-up
        return ops

    def run(self, op: Op, ctx: Context):
        import cyclotile

        spec, b, c, tile = op.args
        if op.kind == "census":
            return cyclotile.census_colorings(spec)
        if op.kind == "search":
            return cyclotile.search_colorings(spec, b, c)
        return cyclotile.search_tilings(tile, c)

    def states(self, op: Op) -> int:
        return 2**op.args[0].modulus

    def check(self, op: Op, out, round_outs: dict):
        spec, b, c, _ = op.args
        p = spec.modulus
        census = round_outs.get("census P=%d" % p)
        if census is None:
            return "no census of the same graph in this round"
        bucket = [col.colors for col in census.get((b, c), [])]
        if op.kind == "census":
            if any(col.b != bc[0] or col.c != bc[1] for bc, cols in out.items() for col in cols):
                return "census colouring filed under the wrong (b, c)"
            return checks.census_defect(p, spec.distances, {
                bc: [col.colors for col in cols] for bc, cols in out.items()})
        if op.kind == "search":
            if [col.colors for col in out.found] != bucket:
                return "search_colorings disagrees with census bucket %s" % ((b, c),)
            if not out.exhausted or out.states_examined != 2**p:
                return "search examined %d of 2^%d states" % (out.states_examined, p)
            return None
        found = {"".join("B" if x else "W" for x in v.values) for v in out}
        if any(set(v.values) - {0, 1} for v in out) or found != set(bucket):
            return "0/1 %d-tilings of the structured tile differ from census bucket %s" % (c, (b, c))
        return None


# ---------------------------------------------------------------- session

PRIME_POWER_SUMS = [8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128]
COMPOSITE_SUMS = [s for s in range(20, 151) if len(factor_small(s)) > 1]


def prime_near(rng: random.Random, around: int) -> int:
    n = around + rng.randrange(around // 10)
    while factor_small(n) != {n: 1}:
        n += 1
    return n


def random_tile(rng: random.Random, p: int, values=(0, 1)) -> tuple[int, ...]:
    while True:
        tile = tuple(rng.choice(values) for _ in range(p))
        if sum(tile) > 0 and len(set(tile)) > 1:
            return tile


def parameters_input(rng: random.Random, perfect: bool) -> tuple:
    """A colour vector on Z/64 with 8 distances: perfect (alternating, or BBBW repeated
    with distances 1, 1, 10 mod 8) or random."""
    if not perfect:
        distances = [rng.randrange(64) for _ in range(8)]
        return 64, tuple(distances), "".join(rng.choice("BW") for _ in range(64))
    if rng.random() < 0.5:
        distances = [rng.randrange(1, 64, 2)] + [rng.randrange(64) for _ in range(7)]
        return 64, tuple(distances), "BW" * 32
    distances = [1, 1, 10] + [8 * rng.randrange(8) for _ in range(5)]
    return 64, tuple(distances), "BBBWBBBW" * 8


class Session(Workload):
    name = "session"
    in_process = True

    def setup(self, rng: random.Random, ctx: Context) -> list[Op]:
        import cyclotile

        # Class sizes put the median operation inside the 14 full P=24 convolutions:
        # 28 operations are far cheaper, 29 far dearer.
        ops = []
        for _ in range(20):
            b, c, k = rng.randrange(1, 41), rng.randrange(1, 41), rng.randrange(1, 21)
            ops.append(Op("admissible", (b, c, k), "admissible"))
        for _ in range(6):  # v differs at a vertex that spoils the count at vertex 0
            u = random_tile(rng, 64)
            v = [1] * 64
            v[-rng.choice([g for g in range(64) if u[g]]) % 64] += 1
            ops.append(Op("verify_mt", (u, tuple(v), sum(u)), "verify_mt spoiled P=64"))
        for p in [24] * 14 + [1024, 2048]:
            u = random_tile(rng, p)
            j = rng.randrange(1, 4)
            ops.append(Op("verify_mt", (u, (j,) * p, j * sum(u)), "verify_mt P=%d" % p))
        for _ in range(2):  # b + c with two prime factors near 10^6
            s = prime_near(rng, 10**6) * prime_near(rng, 10**6)
            b, c = coprime_split(rng, s)
            ops.append(Op("admissible", (b, c, rng.randrange(1, 10**6)), "admissible large"))
        for sums, kind in ((PRIME_POWER_SUMS, "coloring"), (COMPOSITE_SUMS, "distances")):
            for _ in range(6):
                s = rng.choice(sums)
                b = rng.randrange(1, s)
                c = s - b
                k = max(min_admissible_k(b, c), -(-(s - gcd(b, c)) // 2)) + rng.randrange(3)
                ops.append(Op(kind, (b, c, k), kind))
        for _ in range(5):
            tile = random_tile(rng, 32, (-1, 0, 1, 2))
            ops.append(Op("exists", (tile, rng.randrange(1, 13)), "exists P=32"))
        for perfect in (True,) * 4 + (False,) * 2:
            ops.append(Op("parameters", parameters_input(rng, perfect), "parameters P=64"))
        for p in [32] * 3 + [1024]:
            tile = random_tile(rng, p)
            ops.append(Op("construct_mt", (tile, sum(tile) * rng.randrange(1, 4)),
                          "construct_mt P=%d" % p))
        cold_start_probe(ctx)
        for op in ops:  # warm-up: the cyclotomic polynomials the tiles will need
            if op.kind == "construct_mt":
                cyclotile.multitiling_exists(cyclotile.Tile(op.args[0]), op.args[1])
        return ops

    def run(self, op: Op, ctx: Context):
        import cyclotile as ct

        a = op.args
        if op.kind == "admissible":
            return ct.check_admissible(ct.ParamTriple(*a))
        if op.kind == "coloring":
            return ct.construct_perfect_coloring(ct.ParamTriple(*a))
        if op.kind == "distances":
            return ct.construct_distances(ct.ParamTriple(*a))
        if op.kind == "exists":
            return ct.multitiling_exists(ct.Tile(a[0]), a[1])
        if op.kind == "construct_mt":
            return ct.construct_multitiling(ct.Tile(a[0]), a[1])
        if op.kind == "parameters":
            return ct.perfect_parameters(ct.CirculantSpec(a[0], a[1]), a[2])
        return ct.verify_multitiling(ct.Tile(a[0]), ct.Tile(a[1]), a[2])

    def check(self, op: Op, out, round_outs: dict):
        a = op.args
        if op.kind == "admissible":
            ok, violations = checks.admissibility(*a)
            got = [(v.q, v.t, v.bound) for v in out.violations]
            if out.admissible != ok or got != violations:
                return "check_admissible%s gave %s, expected %s" % (a, got, violations)
            return None
        if op.kind in ("coloring", "distances"):
            b, c, k = a
            doc = {"P": out.spec.modulus, "distances": list(out.spec.distances), "b": b, "c": c}
            if op.kind == "coloring":
                if out.coloring is None:
                    return "no colouring for prime-power sum"
                doc["colors"] = out.coloring.colors
            return checks.construct_defect(doc, b, c, k, op.kind == "coloring")
        if op.kind == "exists":
            want = checks.multitiling_exists(list(a[0]), a[1])
            return None if out.passed == want else "multitiling_exists%s: %s" % (a, out.passed)
        if op.kind == "construct_mt":
            ok = checks.is_multitiling(list(a[0]), list(out.tile.values), a[1])
            return None if ok else "constructed multitiling does not cover %d-fold" % a[1]
        if op.kind == "parameters":
            want = checks.perfect_parameters(*a)
            return None if out == want else "perfect_parameters gave %s, expected %s" % (out, want)
        want = checks.is_multitiling(list(a[0]), list(a[1]), a[2])
        return None if out == want else "verify_multitiling gave %s, expected %s" % (out, want)


WORKLOADS = {w.name: w for w in (Construct(), Verify(), Search(), Session())}
