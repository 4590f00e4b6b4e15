"""End-to-end checks of the command-line surface and its exit-code contract."""

import gc
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

import cyclotile
from cyclotile import cli
from cyclotile.cli import run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyclotile.__file__)))
# a child's environment with its stdout block-buffered, as a shell leaves it, so that only
# a flush makes its last write arrive
BUFFERED = dict({name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"},
                PYTHONPATH=SRC)


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


def test_verify_deeply_nested_json(tmp_path, capsys):
    # the decoder's recursion limit makes the document unreadable, not a negative verdict
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("cannot read input: ") and err.count("\n") == 1


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


def test_verify_rejects_a_version_that_is_not_the_integer_one(tmp_path, capsys):
    code, out, _ = invoke(capsys, "construct", "--b", "2", "--c", "6", "--k", "3")
    assert code == 0
    for name, version in (("true", True), ("float", 1.0)):
        doc = json.loads(out)
        doc["version"] = version
        path = tmp_path / ("version_%s.json" % name)
        path.write_text(json.dumps(doc))
        code, verify_out, err = invoke(capsys, "verify", str(path))
        assert code == 2, name
        assert verify_out == ""
        assert "version" in err


def test_group_order_cap(tmp_path, capsys):
    # one P above the cap through spectrum and through a parameters document
    code, out, err = invoke(
        capsys, "spectrum", "--P", "1000000000", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 2 and out == ""
    assert "cap" in err
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"version": 1, "P": 10**9, "distances": [1], "b": 1, "c": 1}))
    code, out, err = invoke(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "cap" in err


def test_spectrum_at_a_large_power_of_two(capsys):
    # no Phi_n is built, so the degree cap on cyclotomic polynomials does not reach
    # spectrum; the structured tile is 1 + x^2 = Phi_4
    code, out, _ = invoke(
        capsys, "spectrum", "--P", "524288", "--distances", "1", "--b", "1", "--c", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["divisors"] == [4]
    assert doc["passes"] is True


def test_internal_invariant_failure_exits_3(monkeypatch, capsys):
    # a constructed colouring that fails its own graph-side check is a bug,
    # which must not be reported as the negative verdict of exit 1
    monkeypatch.setattr(cyclotile, "is_perfect_coloring", lambda spec, col: False)
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


def test_search_impossible_weight_answers_at_once(capsys):
    # 30 * 3 black vertices over b + c = 4 is not whole: no state is classified
    code, out, _ = invoke(
        capsys, "search", "--P", "30", "--distances", "1,2", "--b", "1", "--c", "3", "--limit", "1")
    assert code == 1
    doc = json.loads(out)
    assert (doc["count"], doc["exhausted"], doc["states_examined"]) == (0, True, 2**30)


def test_search_max_states_is_usage_error(capsys):
    # 30 of 40 vertices black: the first hit lies far beyond 1000 states of that weight
    code, out, err = invoke(
        capsys, "search", "--P", "40", "--distances", "1,2", "--b", "1", "--c", "3",
        "--limit", "1", "--max-states", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: classified 1000 states and reached counter position ")
    assert err.count("\n") == 1 and "Traceback" not in err
    code, out, _ = invoke(
        capsys, "search", "--P", "4", "--distances", "1", "--b", "1", "--c", "1",
        "--max-states", "6")
    assert code == 0 and json.loads(out)["count"] == 4
    assert invoke(capsys, "search", "--P", "4", "--distances", "1", "--b", "1", "--c", "1",
                  "--max-states", "5")[0] == 2
    assert invoke(capsys, "search", "--P", "4", "--distances", "1", "--b", "1", "--c", "1",
                  "--max-states", "0")[0] == 2


def test_limited_search_at_a_large_order_fits_in_256_mb():
    # 1000 distances on 4096 vertices: the walk's per-vertex rows alone would take about
    # 0.5 GB if all were held at once. The child limits its own address space to 256 MB
    pytest.importorskip("resource")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
            "from cyclotile.cli import run\n"
            "sys.exit(run(sys.argv[1:]))")
    argv = ["search", "--P", "4096", "--distances", ",".join(map(str, range(1, 1001))),
            "--b", "1", "--c", "1", "--limit", "1", "--max-states", "1"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2, proc.stderr
    assert "max_states" in proc.stderr and "out of memory" not in proc.stderr
    assert elapsed < 10


def test_a_closed_stdout_ends_the_run_quietly():
    # the table's 3 MB is far more than a pipe holds, so the child is still writing when
    # the reader goes: a closed stdout is neither an input error nor a traceback
    proc = subprocess.Popen([sys.executable, "-m", "cyclotile.cli", "table", "--k", "3",
                             "--max-sum", "447"], env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"b,c,k,N,admissible,violating_q,violating_t,prime_power_sum,constructive\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_help_into_a_closed_pipe_ends_quietly():
    # the read end is closed before the child starts, so the help's one write meets a
    # broken pipe: help goes through the same write as every command's payload
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "cyclotile.cli", "--help"],
                              env=dict(os.environ, PYTHONPATH=SRC), stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_full_stdout_exits_2():
    # help too: it is written as the payload of its run, like a command's output
    for argv in (["cyclotomic", "12"], ["--help"], ["construct", "-h"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "cyclotile.cli", *argv],
                                  env=dict(os.environ, PYTHONPATH=SRC), stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("cannot write output: "), argv
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, argv


def test_run_leaves_the_collector_alone(capsys):
    # only main, which ends the process, decides how it ends; a caller of run keeps a
    # normal collector and its own way out
    assert invoke(capsys, "construct", "--b", "2", "--c", "6", "--k", "3")[0] == 0
    assert gc.get_freeze_count() == 0


def test_an_interrupt_exits_130_with_one_line():
    # main leaves by os._exit, but an atexit handler registered before it still runs, and
    # what it prints to a block-buffered stdout still arrives through main's flush
    code = ("import atexit, sys, cyclotile\n"
            "from cyclotile import cli\n"
            "def interrupted(*args, **kwargs):\n"
            "    raise KeyboardInterrupt\n"
            "cyclotile.search_colorings = interrupted\n"
            "atexit.register(lambda: print('atexit ran'))\n"
            "sys.argv[1:] = ['search', '--P', '8', '--distances', '1,2', '--b', '2', '--c', '2']\n"
            "cli.main()")
    proc = subprocess.run([sys.executable, "-c", code], env=BUFFERED,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, "interrupted\n", "atexit ran\n")


@pytest.mark.parametrize("argv, code", [
    (["table", "--k", "3", "--max-sum", "447"], 0),
    (["search", "--P", "24", "--distances", "1,5,7,11", "--b", "4", "--c", "4"], 0),
    (["construct", "--b", "5", "--c", "3", "--k", "3"], 1),
    (["cyclotomic", "9699690"], 2),
], ids=["table", "search", "exit-1", "exit-2"])
def test_a_process_writes_what_run_writes(argv, code, capsys):
    # the payloads of 3 MB and 1.3 MB are far more than a pipe holds, and must arrive whole
    # although main leaves by os._exit
    want = invoke(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "cyclotile.cli", *argv], env=BUFFERED,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    assert want[0] == code and want[2].count("\n") == (code != 0)
    assert code != 0 or len(want[1]) > 1 << 20


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_a_failed_flush_at_exit_exits_120_as_the_interpreter_does():
    # an atexit handler that writes to a full disk: the interpreter's own flush at exit
    # would fail and exit 120, and so does main's
    code = ("import atexit, sys\n"
            "from cyclotile import cli\n"
            "def late():\n"
            "    sys.stdout = open('/dev/full', 'w')\n"
            "    print('late')\n"
            "atexit.register(late)\n"
            "sys.argv[1:] = ['cyclotomic', '12']\n"
            "cli.main()")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (120, '{"n": 12, "coeffs": [1, 0, -1, 0, 1]}\n')


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


def test_construct_decides_admissibility_before_the_distance_cap(capsys):
    # b + c = 2^18 exceeds 2k + gcd(b, c) = 200003, so no k makes the cap matter
    code, out, err = invoke(capsys, "construct", "--b", "1", "--c", "262143", "--k", "100001")
    assert code == 1
    assert json.loads(out) == {
        "admissible": False,
        "violations": [{"q": 2, "t": 18, "bound": 200003}],
    }
    assert err == "no construction: parameters are inadmissible\n"


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
    # each prints the command's usage line and one error line on stderr, nothing on stdout
    for argv in ([], ["bogus"], ["params"], ["params", "check", "--b", "1", "--c", "1"],
                 ["cyclotomic", "zero"], ["cyclotomic", "0"],
                 ["search", "--P", "4", "--distances", "x", "--b", "1", "--c", "1"],
                 ["search", "--P", "8", "--distances", "1,-2", "--b", "1", "--c", "1"],
                 ["params", "check", "--b", "1", "--c", "1", "--k", "1", "--q", "1"],
                 ["params", "check", "--b", "1", "--c", "1", "--k"],
                 ["construct", "--b", "1", "--c", "1", "--k", "1", "--multitiling-only=1"],
                 ["construct", "--b", "1", "--c", "1", "--k", "1", "extra"],
                 ["construct", "--b", "1", "--c", "1", "--k", "1", "--multi"],
                 ["table", "--k", "1", "--max-sum", "3", "--format", "xml"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        usage, error = err.splitlines()
        prog, reason = error.split(": error: ")
        assert usage.startswith("usage: %s [-h]" % prog) and reason, argv


def test_help_exits_zero(capsys):
    # help goes to stdout and names every command, or every argument of the command asked
    commands = ["params check", "construct", "verify", "search", "cyclotomic", "spectrum",
                "table"]
    for argv, names in ((["--help"], commands), (["-h"], commands),
                        (["construct", "--help"], ["--b", "--c", "--k", "--multitiling-only"]),
                        (["params", "check", "-h"], ["--b", "--c", "--k"])):
        code, out, err = invoke(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: cyclotile "), argv
        assert all(name in out for name in names), argv


def test_option_forms_give_the_same_stdout(tmp_path, monkeypatch, capsys):
    # --name=value reads as --name value, a repeated option keeps its last value, and
    # every token after -- is positional, even one that begins with a dash
    spaced = invoke(capsys, "params", "check", "--b", "5", "--c", "3", "--k", "2")
    assert spaced[0] == 1
    assert invoke(capsys, "params", "check", "--b=5", "--c=3", "--k=2") == spaced
    assert invoke(capsys, "params", "check", "--k", "9", "--b", "5", "--c=3", "--k=2") == spaced
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-w.json").write_text(json.dumps(
        {"version": 1, "P": 4, "distances": [1], "b": 1, "c": 1, "colors": "BBWW"}))
    code, out, _ = invoke(capsys, "verify", "--", "-w.json")
    assert code == 0 and json.loads(out)["perfect"] is True


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
    code = "import sys, cyclotile.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def readme_examples():
    """(command line, the text shown below it) for each example in README's CLI block."""
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"),
              encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1].split("```\n")[1]
    examples = []
    for chunk in block.strip("\n").split("\n\n"):
        line, *shown = chunk.split("\n")
        assert line.startswith("$ cyclotile "), line
        examples.append((line[2:], "".join(text + "\n" for text in shown)))
    return examples


def shown_by(capsys, line):
    """What a terminal shows for one README line, its redirect, && and pipe reproduced.

    A line without `echo $?` shows no exit code, so only its output is compared; the
    `> file && ...` line shows that its first command exited 0, and `| head -4` shows
    only the first four lines, so the exit code of the table there goes unchecked.
    """
    if " > " in line:
        first, rest = line.split(" > ")
        name, second = rest.split(" && ")
        code, out, err = shell_invoke(capsys, first)
        assert code == 0 and err == "", line
        with open(name, "w", encoding="utf-8") as handle:
            handle.write(out)
        return shown_by(capsys, second)
    if line.endswith("; echo $?"):
        code, out, err = shell_invoke(capsys, line[:-len("; echo $?")])
        return err + out + "%d\n" % code
    if " | head -" in line:
        command, count = line.split(" | head -")
        _, out, err = shell_invoke(capsys, command)
        return err + "".join(out.splitlines(keepends=True)[:int(count)])
    _, out, err = shell_invoke(capsys, line)
    return err + out


def shell_invoke(capsys, command):
    program, *argv = shlex.split(command)
    assert program == "cyclotile"
    code, out, err = invoke(capsys, *argv)
    assert not (out and err), "a line that writes both streams has no one order on a terminal"
    return code, out, err


README_EXAMPLES = readme_examples()
README_IDS = ["%d-%s" % (i, line.split()[1]) for i, (line, _) in enumerate(README_EXAMPLES)]


@pytest.mark.parametrize("line, shown", README_EXAMPLES, ids=README_IDS)
def test_readme_cli_example(line, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where the example's cert.json is written
    assert shown_by(capsys, line) == shown
