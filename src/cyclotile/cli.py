"""Command-line front end.

Each subcommand's handler returns its exit code and its payload, a JSON
object or the table's CSV text, and `run` writes that payload, or the help
text with code 0, as the one write to standard output; standard error is
reserved for diagnostics. Exit code 0 means the requested check passed, the
object was produced or help was written, 1 means a negative mathematical
verdict, 2 means the invocation itself was bad or stdout could not be
written, and 3 means an internal invariant failed, which is a bug in
cyclotile. A reader that closes standard output early ends the run quietly
with the command's code.

`main`, the entry point of a process, adds two things to `run`: an interrupt
(Ctrl-C) prints one `interrupted` line on standard error and exits 130, with
no traceback, and the process then ends with one `gc.freeze()`, so that no
final collection walks the objects that are still alive when it exits; the
operating system reclaims them at once. `run` itself leaves the collector
and KeyboardInterrupt alone, for tests and other callers in one process.

argv is checked against one table, GRAMMAR, from which the help and usage
lines are also written; argparse is not imported, since every cold process
would pay for it. For the same reason handlers and library alike reach
every module they defer through the package namespace (`cyclotile.<name>`),
which imports a public name's submodule on first use, so a cold process
loads only the modules its subcommand needs. `params check` and
`table` load six (the package, `cli`, `errors`, `admissibility`, `arith` and
`record`) and none of the tile algebra; verifying a colouring loads none of
the algebra either.

Handlers decide nothing the library decides: `construct` reads admissibility
and the route from the one construction it calls, `table` reads admissibility
and whether b + c is a prime power from each row's verdict, and every N is
`ParamTriple.reduced_sum`.
"""

import gc
import json
import os
import sys
from types import SimpleNamespace

import cyclotile

from .errors import CyclotileError, Inadmissible, InputTooLarge

USAGE_ERROR = 2
INTERNAL_ERROR = 3
INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a run stopped by Ctrl-C
MAX_TABLE_ROWS = 100_000  # --max-sum 447 is the largest table within the cap


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError("expected an integer, got %r" % text)
    if value < 1:
        raise ValueError("expected a positive integer, got %s" % value)
    return value


def _distance_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(
            "expected a comma-separated list of integers, got %r" % text)
    if any(v < 0 for v in values):
        raise ValueError("distances must be nonnegative")
    return values


def _format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError("invalid choice: %r (choose from 'csv', 'json')" % text)
    return text


def _admissibility_payload(verdict) -> dict:
    return {
        "admissible": verdict.admissible,
        "violations": [
            {"q": v.q, "t": v.t, "bound": v.bound} for v in verdict.violations
        ],
    }


def _cmd_params_check(args: SimpleNamespace) -> tuple[int, dict]:
    verdict = cyclotile.check_admissible(cyclotile.ParamTriple(args.b, args.c, args.k))
    return 0 if verdict.admissible else 1, _admissibility_payload(verdict)


def _cmd_construct(args: SimpleNamespace) -> tuple[int, dict]:
    params = cyclotile.ParamTriple(args.b, args.c, args.k)
    build = (cyclotile.construct_distances if args.multitiling_only
             else cyclotile.construct_perfect_coloring)
    try:
        witness = build(params)
    except Inadmissible as exc:
        print("no construction: parameters are inadmissible", file=sys.stderr)
        return 1, _admissibility_payload(exc.verdict)
    if witness.coloring is None and not args.multitiling_only:
        print("b + c = %d is not a prime power; emitting the distance "
              "certificate without a colouring" % params.color_sum, file=sys.stderr)
    return 0, cyclotile.witness_to_document(witness)


def _cmd_verify(args: SimpleNamespace) -> tuple[int, dict]:
    with open(args.file, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    spec, b, c, colors = cyclotile.parse_document(doc)
    if colors is not None:
        ok = cyclotile.is_perfect_coloring(spec, cyclotile.Coloring(colors, b, c))
        return 0 if ok else 1, {
            "kind": "coloring",
            "P": spec.modulus,
            "b": b,
            "c": c,
            "perfect": ok,
        }
    verdict = cyclotile.check_graph_condition(spec, b, c)
    return 0 if verdict.passed else 1, {
        "kind": "parameters",
        "P": spec.modulus,
        "b": b,
        "c": c,
        "N": cyclotile.ParamTriple(b, c, spec.k).reduced_sum,
        "prime_power_product_at_one": verdict.spectrum.prime_power_product,
        "passes": verdict.passed,
        "exact": verdict.exact,
    }


def _cmd_search(args: SimpleNamespace) -> tuple[int, dict]:
    spec = cyclotile.CirculantSpec(args.P, args.distances)
    bound = {} if args.max_states is None else {"max_states": args.max_states}
    report = cyclotile.search_colorings(spec, args.b, args.c, limit=args.limit, **bound)
    return 0 if report.found else 1, {
        "P": spec.modulus,
        "distances": list(spec.distances),
        "b": args.b,
        "c": args.c,
        "count": len(report.found),
        "exhausted": report.exhausted,
        "states_examined": report.states_examined,
        "colorings": [col.colors for col in report.found],
    }


def _cmd_cyclotomic(args: SimpleNamespace) -> tuple[int, dict]:
    poly = cyclotile.cyclotomic(args.n)
    return 0, {"n": args.n, "coeffs": list(poly.coeffs)}


def _cmd_spectrum(args: SimpleNamespace) -> tuple[int, dict]:
    spec = cyclotile.CirculantSpec(args.P, args.distances)
    verdict = cyclotile.check_graph_condition(spec, args.b, args.c)
    spectrum = verdict.spectrum  # the tile sums to b + c > 0, so no Phi_1 divides its mask
    return 0 if verdict.passed else 1, {
        "P": spec.modulus,
        "distances": list(spec.distances),
        "b": args.b,
        "c": args.c,
        "divisors": sorted(spectrum.divisors),
        "prime_power_divisors": sorted(spectrum.prime_power_subset),
        "prime_power_product_at_one": spectrum.prime_power_product,
        "N": cyclotile.ParamTriple(args.b, args.c, spec.k).reduced_sum,
        "passes": verdict.passed,
        "exact": verdict.exact,
    }


def _table_rows(k: int, max_sum: int) -> list[dict]:
    count = max_sum * (max_sum - 1) // 2  # s - 1 rows for each s = 2, ..., max_sum
    if count > MAX_TABLE_ROWS:
        raise InputTooLarge("--max-sum %d gives %d rows, above the cap of %d"
                            % (max_sum, count, MAX_TABLE_ROWS))
    rows = []
    for s in range(2, max_sum + 1):
        verdicts = {}  # N -> its verdict: rows of one sum and one gcd(b, c) share both
        for b in range(1, s):
            c = s - b
            params = cyclotile.ParamTriple(b, c, k)
            n = params.reduced_sum
            if n not in verdicts:
                verdicts[n] = cyclotile.check_admissible(params)
            verdict = verdicts[n]
            pp = verdict.prime_power_sum(s)
            worst = verdict.violations[0] if verdict.violations else None
            rows.append({
                "b": b,
                "c": c,
                "k": k,
                "N": n,
                "admissible": verdict.admissible,
                "violating_q": worst.q if worst else None,
                "violating_t": worst.t if worst else None,
                "prime_power_sum": pp,
                "constructive": verdict.admissible if pp else None,
            })
    return rows


def _cmd_table(args: SimpleNamespace) -> tuple[int, dict | str]:
    rows = _table_rows(args.k, args.max_sum)
    if args.format == "json":
        return 0, {"k": args.k, "max_sum": args.max_sum, "rows": rows}
    header = ["b", "c", "k", "N", "admissible", "violating_q", "violating_t",
              "prime_power_sum", "constructive"]
    # every cell is an int, a bool or None, none of which needs CSV quoting
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(["" if row[key] is None else str(row[key]).lower()
                               for key in header]))
    return 0, "\n".join(lines)


_REQUIRED = object()  # the default of an argument that must be given

# One argument: the name it is given by, with its value's placeholder when it takes one
# (an option's name begins with --), its converter (None for a flag), its default
# (_REQUIRED when it must be given) and its help text.
_B = ("--b B", _positive, _REQUIRED, "White neighbours of each Black vertex")
_C = ("--c C", _positive, _REQUIRED, "Black neighbours of each White vertex")
_K = ("--k K", _positive, _REQUIRED, "number of distances; the graph has degree 2k")
_P = ("--P P", _positive, _REQUIRED, "number of vertices, the group order")
_DISTANCES = ("--distances DISTANCES", _distance_list, _REQUIRED,
              "comma-separated distances, such as 1,2")

# Command words -> (help, arguments). The words name the handler: ("params", "check")
# runs _cmd_params_check, looked up when the command runs.
GRAMMAR = {
    ("params", "check"): ("test (b, c, k) for admissibility", (_B, _C, _K)),
    ("construct",): ("build a graph and colouring realizing (b, c) with k distances", (
        _B, _C, _K, ("--multitiling-only", None, False,
                     "emit only the distance certificate, no colour vector"))),
    ("verify",): ("check a JSON document produced by construct", (
        ("file", str, _REQUIRED, "path to the JSON document"),)),
    ("search",): ("brute-force search for perfect colourings", (
        _P, _DISTANCES, _B, _C, ("--limit LIMIT", _positive, None, "stop after this many colourings"),
        ("--max-states MAX_STATES", _positive, None,
         "give up (exit 2) after classifying this many states; default 2^24"))),
    ("cyclotomic",): ("print one cyclotomic polynomial", (
        ("n", _positive, _REQUIRED, "the index n of Phi_n"),)),
    ("spectrum",): ("cyclotomic divisor spectrum of a graph's structured tile",
                    (_P, _DISTANCES, _B, _C)),
    ("table",): ("admissibility grid for one k", (
        _K, ("--max-sum MAX_SUM", _positive, _REQUIRED, "largest b + c to include"),
        ("--format FORMAT", _format, "csv", "csv or json; default csv"))),
}


def _is_option(token: str) -> bool:
    # as argparse reads a token: "-" and negative integers are values
    return token[:1] == "-" and token != "-" and not token[1:].isdigit()


def _usage(words: tuple | None) -> str:
    if words is None:
        return "usage: cyclotile [-h] <command> [<arguments>]"
    return " ".join(["usage: cyclotile", *words, "[-h]"] + [
        arg[0] if arg[2] is _REQUIRED else "[%s]" % arg[0] for arg in GRAMMAR[words][1]])


def _help(words: tuple | None) -> str:
    if words is None:
        about = "perfect 2-colourings of circulant graphs via polynomial tilings\n\ncommands:"
        rows = [(" ".join(command), text) for command, (text, _) in GRAMMAR.items()]
    else:
        about = GRAMMAR[words][0] + "\n\narguments:"
        rows = [(arg[0], arg[3]) for arg in GRAMMAR[words][1]]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(label) for label, _ in rows) + 2
    return "%s\n\n%s\n%s" % (_usage(words), about, "\n".join(
        "  %-*s%s" % (width, label, text) for label, text in rows))


def _values(arguments: tuple, tokens: list[str]) -> SimpleNamespace:
    """The converted arguments of one command; ValueError says what is malformed."""
    named = {arg[0].split()[0]: arg for arg in arguments}
    given, loose, tokens = [], [], iter(tokens)  # given: (argument, its text) in argv order
    for token in tokens:
        if token == "--":
            loose.extend(tokens)
        elif not _is_option(token):
            loose.append(token)
        else:
            name, equals, text = token.partition("=")
            if name not in named:
                raise ValueError("unrecognized arguments: %s" % token)
            if named[name][1] is None and equals:
                raise ValueError("argument %s: ignored explicit argument %r" % (name, text))
            if named[name][1] is not None and not equals:
                text = next(tokens, None)
                if text is None or _is_option(text):
                    raise ValueError("argument %s: expected one argument" % name)
            given.append((named[name], text))
    positionals = [arg for arg in arguments if arg[0][0] != "-"]
    if len(loose) > len(positionals):
        raise ValueError("unrecognized arguments: %s" % " ".join(loose[len(positionals):]))
    values = {}
    for arg, text in given + list(zip(positionals, loose)):
        name = arg[0].split()[0]
        try:
            values[name] = True if arg[1] is None else arg[1](text)
        except ValueError as exc:
            raise ValueError("argument %s: %s" % (name, exc)) from None
    missing = [name for name, arg in named.items() if arg[2] is _REQUIRED and name not in values]
    if missing:
        raise ValueError("the following arguments are required: %s" % ", ".join(missing))
    return SimpleNamespace(**{name.lstrip("-").replace("-", "_"): values.get(name, arg[2])
                              for name, arg in named.items()})


def _parse(argv: list[str]) -> tuple[tuple, SimpleNamespace] | str | int:
    """The command words of argv and its arguments, checked against GRAMMAR.

    Options are spelled in full, as `--name value` or `--name=value`. A repeated option
    keeps its last value, and every token after `--` is positional. Help, asked for by
    `-h` or `--help` anywhere before `--`, is returned as its text, which `run` writes as
    the payload of exit code 0. A usage error goes to stderr and returns its exit code.
    """
    words = next((command for command in GRAMMAR if tuple(argv[:len(command)]) == command), None)
    rest = argv[len(words or ()):]
    if {"-h", "--help"} & set(rest[:rest.index("--")] if "--" in rest else rest):
        return _help(words)
    try:
        if words is None:
            raise ValueError("%s (choose from %s)" % (
                "invalid command: %r" % argv[0] if argv else "a command is required",
                ", ".join(repr(" ".join(command)) for command in GRAMMAR)))
        return words, _values(GRAMMAR[words][1], rest)
    except ValueError as exc:
        print(_usage(words), file=sys.stderr)
        print("%s: error: %s" % (" ".join(("cyclotile",) + (words or ())), exc), file=sys.stderr)
        return USAGE_ERROR


def run(argv: list[str] | None = None) -> int:
    parsed = _parse(sys.argv[1:] if argv is None else argv)
    if isinstance(parsed, int):
        return parsed
    try:
        if isinstance(parsed, str):  # help
            code, payload = 0, parsed
        else:
            words, args = parsed
            code, payload = globals()["_cmd_" + "_".join(words)](args)
        text = payload if isinstance(payload, str) else json.dumps(payload, separators=(", ", ": "))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # json nested too deeply
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
    try:
        print(text, flush=True)
    except OSError as exc:
        # the unwritten rest now goes to os.devnull, where shutdown's flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader that went early ends quietly
            print("cannot write output: %s" % exc, file=sys.stderr)
            return USAGE_ERROR
    return code


def main() -> None:
    try:
        code = run()
    except KeyboardInterrupt:  # caught here, not in run, so Ctrl-C still stops a caller of run
        print("interrupted", file=sys.stderr)
        code = INTERRUPTED
    # the process ends here and nothing alive needs collecting again: frozen, every object
    # is skipped by the collections at interpreter shutdown, while atexit handlers, the
    # flush of stdio and module teardown run as before
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
