"""The package namespace: each public name loads its submodule on first use."""

import importlib
import importlib.util
import json
import os
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


def test_dir_lists_every_public_name():
    assert set(cyclotile.__all__) <= set(dir(cyclotile))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cyclotile.no_such_name  # noqa: B018
    assert not hasattr(cyclotile, "no_such_name")


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
