"""Benchmark for cyclotile: four closed-loop workloads, end-to-end and per-layer metrics.

One run:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
Steadiness of every end-to-end metric against its bound in BENCHMARK.json, from
two sets of ten runs of every workload (seeds 1-10, then seeds 11-20):
    python3 bench/run.py --steadiness

Run from the root of a checkout; the program is imported from ./src and
nothing is installed. A run sets up its inputs from the seed, then
repeats whole rounds of operations for S seconds. Set-up is timed five
times (setup_s is the median): once before the first round and again
between rounds, off the clock. The run keeps itself and its CLI children
on one CPU and times a fixed pure-Python loop before an operation
whenever its last sample is 0.25 s old; every timing it reports is
scaled to the speed at which that loop takes PACE_REF_S (see `Pace`).
ops_per_s and latency_p50_ms come from each operation's median scaled
repeat in the run. With --trace 1 the run then
does one more round with the layer tracer installed and reports
per-layer metrics in place of end-to-end ones. Every output is checked
against bench/checks.py, never against a stored copy. The last line of
standard output is one JSON object with correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 5
STEADY_RUNS = 10  # runs per workload in each of the two steadiness sets
PACE_LOOPS = 20_000  # iterations of the pace loop: 8-14 ms on the machine of bench/README.md
PACE_REF_S = 0.008  # the loop's time at the reference speed all timings are scaled to
PACE_EVERY_S = 0.25  # at most this long between two pace samples before an operation

sys.path.insert(0, BENCH_DIR)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402


def pin_to_one_cpu() -> None:
    """Keep this process, and the CLI children it starts, on one CPU.

    The CPUs of a shared host run at different speeds from moment to
    moment. Pinned, an operation runs on the CPU whose speed the pace loop
    samples; unpinned, a CLI child's time hardly follows the parent's
    samples.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Pace:
    """Samples of the machine's current speed, to scale measured times by.

    A shared host slows every process on a CPU together, by up to ~1.6x,
    for seconds to minutes at a time. A sample is the time of a fixed
    pure-Python loop of the benchmark's own; a time measured between two
    samples is scaled by PACE_REF_S over their mean, so that it reads as
    if the loop had taken PACE_REF_S. The loop touches nothing of the
    program, so a change to the program moves the scaled times as it moves
    the raw ones.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.taken = float("-inf")

    def sample(self) -> int:
        """Take a sample; its index."""
        t0 = time.perf_counter()
        table = {}
        for i in range(PACE_LOOPS):  # integer arithmetic and a dict of ~10^4 keys, like the program
            key = i * 7919 % 10007
            table[key] = table.get(key, 0) + i * i % 7
        sorted(table.items())
        self.taken = time.perf_counter()
        self.samples.append(self.taken - t0)
        return len(self.samples) - 1

    def before_op(self) -> int:
        """Index of the sample that precedes the next operation, taking a fresh one
        when the last is more than PACE_EVERY_S old."""
        if time.perf_counter() - self.taken >= PACE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor from a time measured after sample `index` (and before the next
        one) to the reference speed."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return PACE_REF_S / ((self.samples[index] + after) / 2)


def measure(wl, ops, ctx: Context, pace: Pace, seconds: float | None = None,
            rounds: int | None = None, between=None):
    """Whole rounds until `seconds` have passed (or exactly `rounds` rounds).

    Each operation's entry is (op, output, seconds, index of the pace sample
    before it). `between(elapsed)` is called after each round that does not
    end the phase; the time it takes is kept off the clock.
    """
    done = []
    start = time.perf_counter()
    paused = 0.0
    while True:
        outs = []
        for op in ops:
            if ctx.tracer is not None:
                ctx.tracer.op = ctx.op_serial
                ctx.op_serial += 1
            index = pace.before_op()
            t0 = time.perf_counter()
            try:
                out = wl.run(op, ctx)
            except Exception as exc:  # reported as a wrong output, the run goes on
                out = exc
            outs.append((op, out, time.perf_counter() - t0, index))
        done.append(outs)
        elapsed = time.perf_counter() - start - paused
        if (rounds is not None and len(done) >= rounds) or (rounds is None and elapsed >= seconds):
            pace.sample()  # the sample after the last operation
            return done, elapsed
        if between is not None:
            t0 = time.perf_counter()
            between(elapsed)
            paused += time.perf_counter() - t0


def check_rounds(wl, done) -> tuple[int, int, list[str]]:
    """Attempted, failed and the defects found by the reference checks."""
    attempted = failed = 0
    defects = []
    for outs in done:
        round_outs = {op.key: out for op, out, _, _ in outs}
        for op, out, _, _ in outs:
            attempted += 1
            if isinstance(out, Exception):
                defects.append("%s: raised %r" % (op.key, out))
                continue
            if wl.failed(op, out):
                failed += 1
                continue
            try:
                bad = wl.check(op, out, round_outs)
            except Exception as exc:  # a malformed output must not crash the checker
                bad = "checker raised %r" % (exc,)
            if bad:
                defects.append("%s: %s" % (op.key, bad))
    return attempted, failed, defects


def scaled_times(wl, done, pace: Pace) -> tuple[list[float], list[float]]:
    """Each operation's median repeat in the run, scaled to the reference speed:
    for all of them, and for those that no known fault made fail."""
    every, good = [], []
    for i in range(len(done[0])):
        repeats = [outs[i] for outs in done]
        middle = statistics.median(dt * pace.scale(index) for _, _, dt, index in repeats)
        every.append(middle)
        if not any(wl.failed(op, out) for op, out, _, _ in repeats):
            good.append(middle)
    return every, good


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def single_run(args) -> int:
    wl = WORKLOADS[args.workload]
    bench = load_benchmark()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    os.makedirs(os.path.join(BENCH_DIR, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % wl.name, dir=os.path.join(BENCH_DIR, "work"))
    try:
        ctx = Context(ROOT, workdir)
        pace = Pace()
        setups, raw_setups = [], []

        def set_up():
            rss = ctx.peak_rss_kb
            index = pace.sample()
            t0 = time.perf_counter()
            ops = wl.setup(random.Random(args.seed), ctx)
            raw_setups.append(time.perf_counter() - t0)
            pace.sample()
            setups.append(raw_setups[-1] * pace.scale(index))
            ctx.peak_rss_kb = rss
            return ops

        def set_up_again(elapsed):
            # repeats spread over the measured phase sample the machine at several moments
            if len(setups) < SETUP_REPEATS and elapsed >= args.seconds * len(setups) / SETUP_REPEATS:
                set_up()

        ops = set_up()
        done, elapsed = measure(wl, ops, ctx, pace, seconds=args.seconds, between=set_up_again)
        while len(setups) < SETUP_REPEATS:
            set_up()
        rss_kb = ctx.peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        every, good = scaled_times(wl, done, pace)
        samples = [dt for outs in done for _, _, dt, _ in outs]
        untraced_rate = len(samples) / elapsed
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(every) / sum(every),
            "latency_p50_ms": 1000 * statistics.median(good),
            "peak_rss_mb": rss_kb / 1024,
        }
        summary = ("%s seed=%d: %d rounds of %d ops in %.2f s (raw %.4f op/s), raw setup %s s, "
                   "pace loop %.2f-%.2f ms (median %.2f) over %d samples") % (
            wl.name, args.seed, len(done), len(ops), elapsed, untraced_rate,
            ", ".join("%.3f" % s for s in raw_setups), 1000 * min(pace.samples),
            1000 * max(pace.samples), 1000 * statistics.median(pace.samples), len(pace.samples))
        if len(samples) >= 100:
            summary += ", raw latency_p90_ms %.4f over %d ops" % (
                1000 * statistics.quantiles(samples, n=10)[-1], len(samples))
        states = sum(wl.states(op) for outs in done for op, _, _, _ in outs)
        if states:
            summary += ", raw states_per_s %.0f" % (states / elapsed)
        if args.trace:
            tracer = tracing.Tracer()
            if wl.in_process:
                tracer.install()
                ctx.tracer = tracer
            ctx.traced = True
            ctx.op_serial = 0
            try:
                traced, traced_elapsed = measure(wl, ops, ctx, pace, rounds=1)
            finally:
                tracer.uninstall()
            done += traced
            if wl.in_process:
                agg, spans = tracing.merge([tracer.export()]), tracer.spans
            else:
                agg, spans = tracing.merge(ctx.trace_parts), [s for part in ctx.spans for s in part]
            values = tracing.layer_metrics(agg, ctx.startup_s)
            traced_rate = len(traced[0]) / traced_elapsed
            values["oracle.states_per_s"] = states / elapsed
            values["trace.overhead_ratio"] = untraced_rate / traced_rate
            values["trace.spans"] = agg["spans_total"]
            os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
            span_path = os.path.join(BENCH_DIR, "out", "spans-%s-seed%d.jsonl" % (wl.name, args.seed))
            tracing.write_spans(span_path, spans)
            summary += "; traced round %.2f s (overhead x%.2f), %d of %d spans in %s" % (
                traced_elapsed, untraced_rate / traced_rate, len(spans), agg["spans_total"],
                os.path.relpath(span_path, ROOT))
        attempted, failed, defects = check_rounds(wl, done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in defects[:20]:
        print("DEFECT " + line, file=sys.stderr)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(summary)
    print(json.dumps({"correct": not defects, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def steady_set(bench: dict, name: str, first_seed: int) -> tuple[dict, set]:
    """STEADY_RUNS untraced runs of one workload: each end-to-end metric's values, and
    the failed shares seen."""
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for seed in range(first_seed, first_seed + STEADY_RUNS):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("%s seed %d: incorrect output\n%s" % (name, seed, proc.stderr))
        shares.add(Fraction(result["failed"], result["attempted"]))
        for metric, entry in result["metrics"].items():
            values[metric].append(entry["value"])
    return values, shares


def steadiness() -> int:
    """Two sets of runs of every workload, the second after the first has ended. Per
    end-to-end metric: each set's quartile spread as a share of its median, and how far
    the second median moved from the first, both against the metric's bound."""
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    sets = [{name: steady_set(bench, name, first) for name in names}
            for first in (1, 1 + STEADY_RUNS)]
    for name in names:
        shares = sorted(sets[0][name][1] | sets[1][name][1])
        print("%s: 2 x %d runs, failed share %s" % (name, STEADY_RUNS, " / ".join(map(str, shares))))
        for m in bench["end_to_end"]:
            spreads, medians = [], []
            for one in sets:
                q1, med, q3 = statistics.quantiles(one[name][0][m["name"]], n=4)
                spreads.append((q3 - q1) / med)
                medians.append(med)
            shift = (medians[1] - medians[0]) / medians[0]
            worse = shift if m["better"] == "lower" else -shift
            verdict = "WIDE" if max(spreads) > m["bound"] or worse > m["bound"] else \
                "ok" if max(spreads) < m["bound"] / 3 else "within"
            print("  %-16s median %12.4f %12.4f %-5s spread %6.3f %6.3f  shift %+7.3f  bound %.2f  %s"
                  % (m["name"], medians[0], medians[1], m["unit"], spreads[0], spreads[1], shift,
                     m["bound"], verdict))
            for i, one in enumerate(sets):
                print("      set %d: %s" % (i + 1, " ".join("%.4g" % v for v in one[name][0][m["name"]])))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclotile", "__init__.py")):
        print("no cyclotile sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness()
    if not args.workload or not args.seconds:
        parser.error("a run needs --workload and --seconds")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cyclotile

    if not os.path.abspath(cyclotile.__file__).startswith(os.path.join(ROOT, "src")):
        print("imported cyclotile from %s, not from this checkout" % cyclotile.__file__,
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
