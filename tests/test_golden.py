"""CLI stdout and exit codes, pinned by one hash per group of commands.

tests/data/cli_golden.json holds, for each group below, the number of
commands and the sha256 of their stdouts, each followed by its exit code,
in order. A change that means to alter stdout regenerates the file with
`PYTHONPATH=src python3 tests/test_golden.py` and says which group moved
and why.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile

import pytest

from cyclotile import cli

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
GOLDEN = os.path.join(TESTS, "data", "cli_golden.json")

# the seven constructions of the benchmark's `construct` workload at seed 1, P 512-4600
CONSTRUCT_TRIPLES = [(35, 221, 129), (262, 467, 365), (778, 377, 528), (97, 503, 295),
                     (623, 367, 450), (713, 311, 519), (1091, 1209, 1107)]


def _readme():
    # every command of README's CLI block with its whole output: a pipe or `; echo $?`
    # is dropped, and `> file && ...` writes the file that the second command reads
    with open(os.path.join(os.path.dirname(TESTS), "README.md"), encoding="utf-8") as handle:
        block = handle.read().split("## Command line", 1)[1].split("```\n")[1]
    for line in block.splitlines():
        if line.startswith("$ cyclotile "):
            command = line[len("$ cyclotile "):].split(" | ")[0].split("; ")[0]
            first, _, rest = command.partition(" > ")
            if rest:
                name, second = rest.split(" && cyclotile ")
                yield shlex.split(first), name
                yield shlex.split(second), None
            else:
                yield shlex.split(first), None


def _construct():
    for b, c, k in CONSTRUCT_TRIPLES:
        for extra in ([], ["--multitiling-only"]):
            yield ["construct", "--b", str(b), "--c", str(c), "--k", str(k)] + extra, None


def _cyclotomic():
    for n in range(1, 301):
        yield ["cyclotomic", str(n)], None


def _graph(rng):
    p = rng.randrange(1, 65)
    distances = [rng.randrange(0, 2 * p) for _ in range(rng.randrange(1, 5))]
    return p, distances, rng.randrange(1, 4), rng.randrange(1, 4)  # small b, c: some pass


def _spectrum():
    rng = random.Random(181)
    for _ in range(200):
        p, distances, b, c = _graph(rng)
        yield ["spectrum", "--P", str(p), "--distances", ",".join(map(str, distances)),
               "--b", str(b), "--c", str(c)], None


def _verify():
    rng = random.Random(182)
    for i in range(200):
        p, distances, b, c = _graph(rng)
        name = "parameters-%d.json" % i
        with open(name, "w", encoding="utf-8") as handle:
            json.dump({"version": 1, "P": p, "distances": distances, "b": b, "c": c}, handle)
        yield ["verify", name], None


def _params():
    for s in range(2, 41):
        for b in range(1, s):
            yield ["params", "check", "--b", str(b), "--c", str(s - b), "--k", "3"], None


def _table():
    for form in ("csv", "json"):
        yield ["table", "--k", "3", "--max-sum", "40", "--format", form], None


GROUPS = {"readme": _readme, "construct": _construct, "cyclotomic": _cyclotomic,
          "spectrum": _spectrum, "verify": _verify, "params": _params, "table": _table}


def in_process(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return out.getvalue(), code


def in_child(argv: list[str]) -> tuple[str, int]:
    """One `python -m cyclotile.cli` process, so main's way out is taken too."""
    proc = subprocess.run([sys.executable, "-m", "cyclotile.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, encoding="utf-8", timeout=60)
    return proc.stdout, proc.returncode


def digest(group: str, execute=in_process) -> dict:
    """Run a group's commands in the working directory; their count and the hash of stdout."""
    sha = hashlib.sha256()
    count = 0
    for argv, save_as in GROUPS[group]():
        out, code = execute(argv)
        if save_as is not None:
            with open(save_as, "w", encoding="utf-8") as handle:
                handle.write(out)
        sha.update(out.encode("utf-8") + b"exit %d\n" % code)
        count += 1
    return {"commands": count, "sha256": sha.hexdigest()}


def test_golden_file_covers_every_group():
    with open(GOLDEN, encoding="utf-8") as handle:
        assert sorted(json.load(handle)) == sorted(GROUPS)


@pytest.mark.parametrize("group", GROUPS)
def test_cli_stdout_matches_golden(group, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)[group]
    assert digest(group) == want, "CLI stdout of group %r differs from the golden hash" % group


def test_cli_processes_match_the_readme_golden(tmp_path, monkeypatch):
    # the same hash through the real entry point: exit codes and stdout as main leaves them
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, encoding="utf-8") as handle:
        want = json.load(handle)["readme"]
    assert digest("readme", in_child) == want


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            golden = {group: digest(group) for group in GROUPS}
        finally:
            os.chdir(home)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
