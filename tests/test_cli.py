"""End-to-end checks of the command-line surface and its exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

import cyclotile
from cyclotile import admissibility, cli
from cyclotile.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_check_inadmissible(capsys):
    code, out, _ = invoke(capsys, "params", "check", "--b", "5", "--c", "3", "--k", "3")
    assert code == 1
    assert json.loads(out) == {
        "admissible": False,
        "violations": [{"q": 2, "t": 3, "bound": 7}],
    }


def test_params_check_admissible(capsys):
    code, out, _ = invoke(capsys, "params", "check", "--b", "1", "--c", "1", "--k", "1")
    assert code == 0
    assert json.loads(out) == {"admissible": True, "violations": []}


def test_construct_basic(capsys):
    code, out, _ = invoke(capsys, "construct", "--b", "1", "--c", "1", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == 4
    assert doc["distances"] == [5]
    assert doc["colors"] == "BBWW"
    assert doc["construction"]["lifted"] == [5]


def test_construct_inadmissible(capsys):
    code, out, err = invoke(capsys, "construct", "--b", "4", "--c", "3", "--k", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert doc["violations"][0]["q"] == 7
    assert "inadmissible" in err


def test_construct_multitiling_only(capsys):
    code, out, _ = invoke(
        capsys, "construct", "--b", "3", "--c", "1", "--k", "2", "--multitiling-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["P"] == 8
    assert "colors" not in doc
    assert doc["construction"]["per_prime"][0]["modulus"] == 8


def test_construct_non_prime_power_sum(capsys):
    code, out, err = invoke(capsys, "construct", "--b", "5", "--c", "7", "--k", "6")
    assert code == 0
    doc = json.loads(out)
    assert "colors" not in doc
    assert doc["P"] == 24
    assert "not a prime power" in err


def test_verify_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "construct", "--b", "3", "--c", "1", "--k", "2")
    assert code == 0
    path = tmp_path / "witness.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "coloring"
    assert doc["perfect"] is True


def test_verify_parameter_document(tmp_path, capsys):
    code, out, _ = invoke(
        capsys, "construct", "--b", "5", "--c", "7", "--k", "6")
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "parameters"
    assert doc["passes"] is True
    assert doc["N"] == 12


def test_verify_imperfect_coloring(tmp_path, capsys):
    doc = {
        "version": 1,
        "P": 4,
        "distances": [1],
        "b": 1,
        "c": 1,
        "colors": "BWBW",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(out)["perfect"] is False


def test_verify_missing_file(capsys):
    code, _, err = invoke(capsys, "verify", "/nonexistent/file.json")
    assert code == 2
    assert err


def test_verify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 2


def test_verify_malformed_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"version": 1, "P": 4}))
    code, _, err = invoke(capsys, "verify", str(path))
    assert code == 2


def test_verify_rejects_json_booleans(tmp_path, capsys):
    code, out, _ = invoke(capsys, "construct", "--b", "2", "--c", "6", "--k", "3")
    assert code == 0
    for field, value in (("b", True), ("distances", [True, 1, 10]), ("P", True)):
        doc = json.loads(out)
        doc[field] = value
        path = tmp_path / ("bool_%s.json" % field)
        path.write_text(json.dumps(doc))
        code, verify_out, err = invoke(capsys, "verify", str(path))
        assert code == 2, field
        assert verify_out == ""
        assert err


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    # a constructed colouring that fails its own graph-side check is a bug,
    # which must not be reported as the negative verdict of exit 1
    monkeypatch.setattr(admissibility, "is_perfect_coloring", lambda spec, col: False)
    code, out, err = invoke(capsys, "construct", "--b", "2", "--c", "6", "--k", "3")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_memory_error_exits_2(monkeypatch, capsys):
    # running out of memory is an input too large, not the negative verdict of exit 1
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_cyclotomic", exhausted)
    code, out, err = invoke(capsys, "cyclotomic", "12")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_search_found(capsys):
    code, out, _ = invoke(
        capsys, "search", "--P", "4", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["colorings"] == ["BBWW", "WBBW", "BWWB", "WWBB"]
    assert doc["exhausted"] is True
    assert doc["states_examined"] == 16


def test_search_empty(capsys):
    code, out, _ = invoke(
        capsys, "search", "--P", "3", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 1
    assert json.loads(out)["count"] == 0


def test_search_limit(capsys):
    code, out, _ = invoke(
        capsys, "search", "--P", "4", "--distances", "1", "--b", "1", "--c", "1",
        "--limit", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["exhausted"] is False


def test_search_too_large_is_usage_error(capsys):
    code, _, err = invoke(
        capsys, "search", "--P", "30", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 2
    assert err


def test_cyclotomic(capsys):
    code, out, _ = invoke(capsys, "cyclotomic", "12")
    assert code == 0
    assert json.loads(out) == {"n": 12, "coeffs": [1, 0, -1, 0, 1]}


def test_cyclotomic_degree_cap(capsys):
    # phi(9699690) = 1658880 and phi(2^40) = 2^39: refused before any coefficient exists
    for n in ("9699690", "1099511627776"):
        code, out, err = invoke(capsys, "cyclotomic", n)
        assert code == 2 and out == ""
        assert "above the cap of 131072" in err


def test_cyclotomic_below_the_degree_cap(capsys):
    # phi(510510) = 92160
    code, out, _ = invoke(capsys, "cyclotomic", "510510")
    assert code == 0
    coeffs = json.loads(out)["coeffs"]
    assert len(coeffs) == 92161
    assert coeffs[0] == coeffs[-1] == 1


def test_params_check_with_a_large_prime_sum(capsys):
    # b + c = 999999999999999989 is prime, so the one prime power of N is N itself
    code, out, _ = invoke(
        capsys, "params", "check", "--b", "1", "--c", "999999999999999988", "--k", "3")
    assert code == 1
    assert json.loads(out) == {
        "admissible": False,
        "violations": [{"q": 999999999999999989, "t": 1, "bound": 7}],
    }


def test_construct_with_a_large_prime_sum(capsys):
    code, out, err = invoke(capsys, "construct", "--b", "1", "--c", "999999999999999988",
                            "--k", "500000000000000000")
    assert code == 2 and out == ""
    assert "above the cap of 100000" in err


def test_params_check_beyond_the_factorization_limit(capsys):
    code, out, err = invoke(
        capsys, "params", "check", "--b", "1", "--c", "3317044064679887385961980", "--k", "3")
    assert code == 2 and out == ""
    assert "cannot factorize" in err


def test_spectrum_pass(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--P", "4", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["divisors"] == [4]
    assert doc["prime_power_product_at_one"] == 2
    assert doc["passes"] is True
    assert doc["exact"] is True


def test_spectrum_fail(capsys):
    code, out, _ = invoke(
        capsys, "spectrum", "--P", "3", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 1
    assert json.loads(out)["passes"] is False


def test_table_row_count_and_determinism(capsys):
    code, first, _ = invoke(capsys, "table", "--k", "3", "--max-sum", "12")
    assert code == 0
    rows = first.strip().split("\n")
    # header plus one row per (b,c) with b+c up to the requested sum
    assert len(rows) == 1 + sum(s - 1 for s in range(2, 13))
    assert rows[0] == ("b,c,k,N,admissible,violating_q,violating_t,"
                       "prime_power_sum,constructive")
    code, second, _ = invoke(capsys, "table", "--k", "3", "--max-sum", "12")
    assert first == second


def test_table_json_format(capsys):
    code, out, _ = invoke(capsys, "table", "--k", "2", "--max-sum", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == sum(s - 1 for s in range(2, 8))
    row = doc["rows"][0]
    assert row == {
        "b": 1, "c": 1, "k": 2, "N": 2, "admissible": True,
        "violating_q": None, "violating_t": None,
        "prime_power_sum": True, "constructive": True,
    }
    # the (4,3) row reproduces the smallest refuted tuple at k=2
    bad = [r for r in doc["rows"] if (r["b"], r["c"]) == (4, 3)][0]
    assert bad["admissible"] is False
    assert bad["violating_q"] == 7
    assert bad["constructive"] is False


def test_table_csv_encodes_missing_as_empty(capsys):
    code, out, _ = invoke(capsys, "table", "--k", "1", "--max-sum", "6")
    assert code == 0
    lines = out.strip().split("\n")
    admissible_rows = [ln for ln in lines[1:] if ln.split(",")[4] == "true"]
    assert all(ln.split(",")[5] == "" for ln in admissible_rows)


def test_table_row_cap(capsys):
    code, out, err = invoke(capsys, "table", "--k", "3", "--max-sum", "3000")
    assert code == 2 and out == ""
    assert "4498500 rows" in err
    # 448 * 447 / 2 = 100128 rows is the first size over the cap of 100000
    assert invoke(capsys, "table", "--k", "3", "--max-sum", "448")[0] == 2


def test_usage_errors(capsys):
    assert invoke(capsys, )[0] == 2
    assert invoke(capsys, "bogus")[0] == 2
    assert invoke(capsys, "params")[0] == 2
    assert invoke(capsys, "params", "check", "--b", "1", "--c", "1")[0] == 2
    assert invoke(capsys, "cyclotomic", "zero")[0] == 2
    assert invoke(capsys, "cyclotomic", "0")[0] == 2
    assert invoke(capsys, "search", "--P", "4", "--distances", "x", "--b", "1", "--c", "1")[0] == 2


def test_help_exits_zero(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_verify_of_every_construct_output(tmp_path, capsys):
    # contract: verify exits 0 on anything construct emits
    cases = [(1, 1, 1), (2, 1, 1), (3, 1, 2), (2, 2, 2), (2, 6, 3), (5, 7, 6), (4, 4, 2)]
    for b, c, k in cases:
        code, out, _ = invoke(
            capsys, "construct", "--b", str(b), "--c", str(c), "--k", str(k))
        assert code == 0, (b, c, k)
        path = tmp_path / ("w_%d_%d_%d.json" % (b, c, k))
        path.write_text(out)
        code, _, _ = invoke(capsys, "verify", str(path))
        assert code == 0, (b, c, k)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every cold CLI process pays for what importing the CLI loads; these two cost ~8 ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(cyclotile.__file__)))
    code = "import sys, cyclotile.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
