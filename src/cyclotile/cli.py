"""Command-line front end.

Every subcommand prints one JSON payload (or CSV for the table) on
standard output and reserves standard error for diagnostics. Exit code 0
means the requested check passed or the object was produced, 1 means a
negative mathematical verdict, 2 means the invocation itself was bad,
and 3 means an internal invariant failed, which is a bug in cyclotile.
"""

from __future__ import annotations

import argparse
import json
import sys

# Each handler imports what it calls, so a cold process loads only the modules
# its subcommand needs: verifying a colouring never loads the algebra.
from .errors import CyclotileError, InputTooLarge

USAGE_ERROR = 2
INTERNAL_ERROR = 3
MAX_TABLE_ROWS = 100_000  # --max-sum 447 is the largest table within the cap


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %s" % value)
    return value


def _distance_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated list of integers, got %r" % text)
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("distances must be nonnegative")
    return values


def _emit(payload: dict) -> None:
    print(json.dumps(payload, separators=(", ", ": ")))


def _admissibility_payload(verdict) -> dict:
    return {
        "admissible": verdict.admissible,
        "violations": [
            {"q": v.q, "t": v.t, "bound": v.bound} for v in verdict.violations
        ],
    }


def _cmd_params_check(args: argparse.Namespace) -> int:
    from .admissibility import ParamTriple, check_admissible

    verdict = check_admissible(ParamTriple(args.b, args.c, args.k))
    _emit(_admissibility_payload(verdict))
    return 0 if verdict.admissible else 1


def _cmd_construct(args: argparse.Namespace) -> int:
    from .admissibility import (
        ParamTriple,
        check_admissible,
        construct_distances,
        construct_perfect_coloring,
        witness_to_document,
    )
    from .arith import is_prime_power

    params = ParamTriple(args.b, args.c, args.k)
    verdict = check_admissible(params)
    if not verdict.admissible:
        print("no construction: parameters are inadmissible", file=sys.stderr)
        _emit(_admissibility_payload(verdict))
        return 1
    if args.multitiling_only or not is_prime_power(params.color_sum):
        if not args.multitiling_only:
            print(
                "b + c = %d is not a prime power; emitting the distance "
                "certificate without a colouring" % params.color_sum,
                file=sys.stderr)
        witness = construct_distances(params)
    else:
        witness = construct_perfect_coloring(params)
    _emit(witness_to_document(witness))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .coloring import Coloring, is_perfect_coloring, parse_document

    with open(args.file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    spec, b, c, colors = parse_document(doc)
    if colors is not None:
        ok = is_perfect_coloring(spec, Coloring(colors, b, c))
        _emit({
            "kind": "coloring",
            "P": spec.modulus,
            "b": b,
            "c": c,
            "perfect": ok,
        })
        return 0 if ok else 1
    from .admissibility import check_graph_condition

    verdict = check_graph_condition(spec, b, c)
    _emit({
        "kind": "parameters",
        "P": spec.modulus,
        "b": b,
        "c": c,
        "N": verdict.reduced_sum,
        "prime_power_product_at_one": verdict.prime_power_product_at_one,
        "passes": verdict.passed,
        "exact": verdict.exact,
    })
    return 0 if verdict.passed else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from .coloring import CirculantSpec
    from .oracle import search_colorings

    spec = CirculantSpec(args.P, args.distances)
    report = search_colorings(spec, args.b, args.c, limit=args.limit)
    _emit({
        "P": spec.modulus,
        "distances": list(spec.distances),
        "b": args.b,
        "c": args.c,
        "count": len(report.found),
        "exhausted": report.exhausted,
        "states_examined": report.states_examined,
        "colorings": [col.colors for col in report.found],
    })
    return 0 if report.found else 1


def _cmd_cyclotomic(args: argparse.Namespace) -> int:
    from .cyclotomic import cyclotomic

    poly = cyclotomic(args.n)
    _emit({"n": args.n, "coeffs": list(poly.coeffs)})
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    from .admissibility import check_graph_condition
    from .coloring import CirculantSpec

    spec = CirculantSpec(args.P, args.distances)
    verdict = check_graph_condition(spec, args.b, args.c)
    _emit({
        "P": spec.modulus,
        "distances": list(spec.distances),
        "b": args.b,
        "c": args.c,
        "divisors": sorted(verdict.divisors),
        "prime_power_divisors": sorted(verdict.prime_power_divisors),
        "divisor_product_at_one": verdict.divisor_product_at_one,
        "prime_power_product_at_one": verdict.prime_power_product_at_one,
        "N": verdict.reduced_sum,
        "passes": verdict.passed,
        "exact": verdict.exact,
    })
    return 0 if verdict.passed else 1


def _table_rows(k: int, max_sum: int) -> list[dict]:
    import math

    from .admissibility import ParamTriple, check_admissible
    from .arith import is_prime_power

    count = max_sum * (max_sum - 1) // 2  # s - 1 rows for each s = 2, ..., max_sum
    if count > MAX_TABLE_ROWS:
        raise InputTooLarge("--max-sum %d gives %d rows, above the cap of %d"
                            % (max_sum, count, MAX_TABLE_ROWS))
    rows = []
    for s in range(2, max_sum + 1):
        pp = is_prime_power(s)
        for b in range(1, s):
            c = s - b
            verdict = check_admissible(ParamTriple(b, c, k))
            worst = verdict.violations[0] if verdict.violations else None
            constructive = (s <= 2 * k + math.gcd(b, c)) if pp else None
            rows.append({
                "b": b,
                "c": c,
                "k": k,
                "N": s // math.gcd(b, c),
                "admissible": verdict.admissible,
                "violating_q": worst.q if worst else None,
                "violating_t": worst.t if worst else None,
                "prime_power_sum": pp,
                "constructive": constructive,
            })
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    import csv

    rows = _table_rows(args.k, args.max_sum)
    if args.format == "json":
        _emit({"k": args.k, "max_sum": args.max_sum, "rows": rows})
        return 0
    writer = csv.writer(sys.stdout, lineterminator="\n")
    header = ["b", "c", "k", "N", "admissible", "violating_q", "violating_t",
              "prime_power_sum", "constructive"]
    writer.writerow(header)
    for row in rows:
        writer.writerow([
            "" if row[key] is None else
            ("true" if row[key] is True else "false" if row[key] is False else row[key])
            for key in header
        ])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclotile",
        description="perfect 2-colourings of circulant graphs via polynomial tilings")
    sub = parser.add_subparsers(dest="command", required=True)

    params = sub.add_parser("params", help="parameter-level checks")
    params_sub = params.add_subparsers(dest="subcommand", required=True)
    check = params_sub.add_parser("check", help="test (b, c, k) for admissibility")
    check.add_argument("--b", type=_positive, required=True)
    check.add_argument("--c", type=_positive, required=True)
    check.add_argument("--k", type=_positive, required=True)
    check.set_defaults(handler=_cmd_params_check)

    construct = sub.add_parser(
        "construct", help="build a graph and colouring realizing (b, c) with k distances")
    construct.add_argument("--b", type=_positive, required=True)
    construct.add_argument("--c", type=_positive, required=True)
    construct.add_argument("--k", type=_positive, required=True)
    construct.add_argument(
        "--multitiling-only", action="store_true",
        help="emit only the distance certificate, no colour vector")
    construct.set_defaults(handler=_cmd_construct)

    verify = sub.add_parser("verify", help="check a JSON document produced by construct")
    verify.add_argument("file", help="path to the JSON document")
    verify.set_defaults(handler=_cmd_verify)

    search = sub.add_parser("search", help="brute-force search for perfect colourings")
    search.add_argument("--P", type=_positive, required=True)
    search.add_argument("--distances", type=_distance_list, required=True)
    search.add_argument("--b", type=_positive, required=True)
    search.add_argument("--c", type=_positive, required=True)
    search.add_argument("--limit", type=_positive, default=None,
                        help="stop after this many colourings")
    search.set_defaults(handler=_cmd_search)

    cyc = sub.add_parser("cyclotomic", help="print one cyclotomic polynomial")
    cyc.add_argument("n", type=_positive)
    cyc.set_defaults(handler=_cmd_cyclotomic)

    spectrum = sub.add_parser(
        "spectrum", help="cyclotomic divisor spectrum of a graph's structured tile")
    spectrum.add_argument("--P", type=_positive, required=True)
    spectrum.add_argument("--distances", type=_distance_list, required=True)
    spectrum.add_argument("--b", type=_positive, required=True)
    spectrum.add_argument("--c", type=_positive, required=True)
    spectrum.set_defaults(handler=_cmd_spectrum)

    table = sub.add_parser("table", help="admissibility grid for one k")
    table.add_argument("--k", type=_positive, required=True)
    table.add_argument("--max-sum", type=_positive, required=True,
                       help="largest b + c to include")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.set_defaults(handler=_cmd_table)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else USAGE_ERROR
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, CyclotileError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return USAGE_ERROR
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
