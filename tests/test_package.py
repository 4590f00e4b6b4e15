"""The package namespace: each public name loads its submodule on first use."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

import cyclotile

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyclotile.__file__)))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fresh(code: str, *argv: str) -> list:
    """The JSON value on the last stdout line of a new `python -S` process running code."""
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_public_name_is_its_home_object():
    assert sorted(cyclotile._HOME) == sorted(cyclotile.__all__)
    # every submodule is loaded first: loading cyclotile.cyclotomic binds the submodule
    # on the package under the name of the public function cyclotomic
    code = """if True:
        import importlib, json, sys
        import cyclotile
        homes = {name: importlib.import_module("cyclotile." + home)
                 for name, home in cyclotile._HOME.items()}
        print(json.dumps([name for name in cyclotile.__all__
                          if getattr(cyclotile, name) is not getattr(homes[name], name)]))
    """
    assert run_fresh(code) == []
    for name in cyclotile.__all__:
        home = importlib.import_module("cyclotile." + cyclotile._HOME[name])
        assert getattr(cyclotile, name) is getattr(home, name), name


def test_submodules_defer_only_through_the_package_namespace():
    # no import statement sits inside a function: a submodule defers a sibling by reading
    # cyclotile.<name>, so every name read that way must be a public one
    package = os.path.dirname(os.path.abspath(cyclotile.__file__))
    nested, unknown, deferred = set(), [], set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested |= {"%s:%d" % (filename, inner.lineno) for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "cyclotile"):
                deferred.add(node.attr)
                if node.attr not in cyclotile._HOME:
                    unknown.append("%s:%d cyclotile.%s" % (filename, node.lineno, node.attr))
    assert sorted(nested) == []
    assert unknown == []
    assert {"check_graph_condition", "structured_tile", "IntPolynomial",
            "verify_multitiling"} <= deferred


def test_dir_lists_every_public_name():
    assert set(cyclotile.__all__) <= set(dir(cyclotile))


def test_readme_names_every_public_name():
    # each public name appears as a word in some code span or code block of the README
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as handle:
        spans = " ".join(re.findall(r"`+([^`]+)`+", handle.read()))
    named = set(re.findall(r"\w+", spans))
    assert [name for name in cyclotile.__all__ if name not in named] == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclotile.no_such_name  # noqa: B018
    assert not hasattr(cyclotile, "no_such_name")


def test_errors_are_the_negative_verdicts_and_the_bound():
    # a CyclotileError is a negative verdict or a refused bound; a malformed or
    # out-of-range argument is a plain ValueError
    errors = importlib.import_module("cyclotile.errors")
    defined = sorted(name for name, value in vars(errors).items()
                     if isinstance(value, type) and issubclass(value, Exception))
    assert defined == ["CyclotileError", "Inadmissible", "InputTooLarge", "NotExists"]
    assert set(defined) <= set(cyclotile.__all__)


def test_verify_colouring_loads_no_algebra(tmp_path):
    doc = tmp_path / "coloring.json"
    doc.write_text(json.dumps({"version": 1, "P": 4, "distances": [1], "b": 1, "c": 1,
                               "colors": "BBWW"}))
    code = """if True:
        import json, sys
        from cyclotile import cli
        assert cli.run(["verify", sys.argv[1]]) == 0
        print(json.dumps(sorted(set(sys.modules) & {
            "cyclotile.admissibility", "cyclotile.oracle", "cyclotile.tiling",
            "cyclotile.cyclotomic", "cyclotile.arith", "csv", "argparse", "gettext", "locale",
            "__future__"})))
    """
    assert run_fresh(code, str(doc)) == []


def test_checking_a_tile_loads_no_spectrum():
    # verify_multitiling and the search_tilings confirmations it backs need no cyclotomic
    # spectrum, so tiling reaches divisor_spectrum through the package namespace
    code = """if True:
        import json, sys
        from cyclotile import Tile, search_tilings, verify_multitiling
        u = Tile((1, 0, 1, 0))
        checks = [verify_multitiling(u, Tile((1, 1, 0, 0)), 1),
                  verify_multitiling(u, Tile((1, 0, 0, 0)), 1), len(search_tilings(u, 1))]
        print(json.dumps([checks, sorted(name for name in sys.modules
                                         if name.startswith("cyclotile"))]))
    """
    loaded = ["cyclotile"] + ["cyclotile." + name for name in (
        "coloring", "errors", "oracle", "record", "tiling")]
    assert run_fresh(code) == [[True, False, 4], loaded]


def test_construct_loads_no_polyring():
    # the spectrum and both witnesses need no polynomial type, so polyring is imported
    # only by the two functions that return or divide one; argv needs no argparse, and
    # annotations are evaluated where they stand, with no __future__ import
    code = """if True:
        import contextlib, io, json, sys
        from cyclotile import cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["construct", "--b", "1", "--c", "7", "--k", "4"]) == 0
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("cyclotile")
                                or name in ("argparse", "__future__"))))
    """
    assert run_fresh(code) == ["cyclotile"] + ["cyclotile." + name for name in (
        "admissibility", "arith", "cli", "coloring", "cyclotomic", "errors", "record", "tiling")]
    # a polynomial product packs its digits with int.to_bytes, not struct
    code = """if True:
        import contextlib, io, json, sys
        from cyclotile import cli, cyclotomic, cyclotomic_divides
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["cyclotomic", "12"]) == 0
        phi = cyclotomic(12)
        print(json.dumps([json.loads(out.getvalue()), cyclotomic_divides(12, phi * cyclotomic(5)),
                          cyclotomic_divides(3, phi), "struct" in sys.modules]))
    """
    assert run_fresh(code) == [{"n": 12, "coeffs": [1, 0, -1, 0, 1]}, True, False, False]


def test_table_loads_no_csv():
    # no cell of the table needs quoting, so its rows are joined without the csv module
    code = """if True:
        import contextlib, io, json, sys
        from cyclotile import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(["table", "--k", "2", "--max-sum", "6"]) == 0
        print(json.dumps([out.getvalue().splitlines()[:2], "csv" in sys.modules]))
    """
    assert run_fresh(code) == [["b,c,k,N,admissible,violating_q,violating_t,prime_power_sum,"
                                "constructive", "1,1,2,2,true,,,true,true"], False]


# the cyclotile modules, beyond the package and cli, that a cold process of each command
# line loads; deciding admissibility needs arithmetic only, and no tile algebra
DECIDING = ["admissibility", "arith", "errors", "record"]
ALGEBRA = sorted(DECIDING + ["coloring", "cyclotomic", "tiling"])
DOCUMENTS = {"coloring.json": {"version": 1, "P": 4, "distances": [1], "b": 1, "c": 1,
                               "colors": "BBWW"},
             "parameters.json": {"version": 1, "P": 4, "distances": [1], "b": 1, "c": 1}}
LOADS = [
    ("params check --b 5 --c 3 --k 2", 1, DECIDING),
    ("table --k 2 --max-sum 6", 0, DECIDING),
    ("verify coloring.json", 0, ["coloring", "errors", "record"]),
    ("verify parameters.json", 0, ALGEBRA),
    ("spectrum --P 8 --distances 1 --b 1 --c 1", 0, ALGEBRA),
    ("construct --b 1 --c 7 --k 4", 0, ALGEBRA),
    ("construct --b 2 --c 6 --k 3 --multitiling-only", 0, ALGEBRA),
    ("search --P 4 --distances 1 --b 1 --c 1", 0, ["coloring", "errors", "oracle", "record"]),
    ("cyclotomic 12", 0, ["arith", "cyclotomic", "errors", "polyring", "record"]),
]


@pytest.mark.parametrize("line, code, loaded", LOADS, ids=[line for line, _, _ in LOADS])
def test_each_command_loads_only_its_modules(line, code, loaded, tmp_path):
    for name, doc in DOCUMENTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(tmp_path / word) if word in DOCUMENTS else word for word in line.split()]
    script = """if True:
        import contextlib, io, json, sys
        from cyclotile import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(sys.argv[1:])
        print(json.dumps([code, sorted(name for name in sys.modules
                                       if name.startswith("cyclotile"))]))
    """
    assert run_fresh(script, *argv) == [
        code, ["cyclotile"] + ["cyclotile." + name for name in sorted(loaded + ["cli"])]]


def test_benchmark_tracer_finds_every_function_its_metrics_need():
    # a traced benchmark run skips a function it cannot find and drops the metrics that need it
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(REPO, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name in sorted({name for needs, _ in tracer.METRICS.values() for name in needs}):
        layer, *path = name.split(".")
        owner = importlib.import_module("cyclotile." + layer)
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert missing == []
    assert callable(importlib.import_module("cyclotile.cyclotomic").cyclotomic.cache_info)
