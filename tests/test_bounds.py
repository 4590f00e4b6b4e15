"""Every input cap as a contract: just inside it a run answers, just past it the run exits 2.

Each probe is one `python -m cyclotile.cli` process whose address space is limited to
512 MB and whose wall time is limited to 10 s, so a cap that let through work that does
not fit either bound fails here, not on a user's machine.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import cyclotile
from cyclotile.arith import FACTOR_LIMIT

resource = pytest.importorskip("resource")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cyclotile.__file__)))
ADDRESS_SPACE = 512 << 20
SECONDS = 10

# cap -> (argv, exit code, the one stderr line's gist or None for no stderr), just inside
# and just past it
PROBES = {
    "MAX_DISTANCES": [
        (["construct", "--b", "1", "--c", "1", "--k", "100000"], 0, None),
        (["construct", "--b", "1", "--c", "1", "--k", "100001"], 2, "above the cap of 100000"),
    ],
    "MAX_MODULUS": [
        (["spectrum", "--P", "1048576", "--distances", "1", "--b", "1", "--c", "1"], 0, None),
        (["spectrum", "--P", "1048577", "--distances", "1", "--b", "1", "--c", "1"], 2,
         "above the cap of 1048576"),
    ],
    # phi(2^18) = 2^17 is the cap itself; phi(131101) = 131100, the prime just past it
    "MAX_DEGREE": [
        (["cyclotomic", "262144"], 0, None),
        (["cyclotomic", "131101"], 2, "above the cap of 131072"),
    ],
    "MAX_TABLE_ROWS": [
        (["table", "--k", "3", "--max-sum", "447"], 0, None),
        (["table", "--k", "3", "--max-sum", "448"], 2, "above the cap of 100000"),
    ],
    "MAX_EXHAUSTIVE_ORDER": [
        (["search", "--P", "24", "--distances", "1,5,7,11", "--b", "4", "--c", "4"], 0, None),
        (["search", "--P", "25", "--distances", "1", "--b", "1", "--c", "1"], 2,
         "stay at P <= 24"),
    ],
    # the default max_states would run ~30 s at P = 4096 (a block holds one state of the
    # class after each refill), so the search just inside the cap is stopped by a small one
    "MAX_LIMITED_ORDER": [
        (["search", "--P", "4096", "--distances", "1", "--b", "1", "--c", "1", "--limit", "1",
          "--max-states", "4096"], 2, "raise max_states"),
        (["search", "--P", "4097", "--distances", "1", "--b", "1", "--c", "1", "--limit", "1"], 2,
         "above the 4096 this oracle searches"),
    ],
    # b + c = N: FACTOR_LIMIT - 1 = 2^2 3^4 5 127 18778597 858557454841 is factorized
    "FACTOR_LIMIT": [
        (["params", "check", "--b", "1", "--c", str(FACTOR_LIMIT - 2), "--k", "3"], 1, None),
        (["params", "check", "--b", "1", "--c", str(FACTOR_LIMIT - 1), "--k", "3"], 2,
         "proven exact only below %d" % FACTOR_LIMIT),
    ],
}


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("argv, code, message", [
    probe for probes in PROBES.values() for probe in probes
], ids=["%s-%s" % (cap, side) for cap in PROBES for side in ("inside", "past")])
def test_a_cap_bounds_its_run(argv, code, message):
    proc = subprocess.run([sys.executable, "-m", "cyclotile.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=limit_address_space,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=SECONDS)
    assert proc.returncode == code, proc.stderr
    if message is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr.count("\n") == 1 and message in proc.stderr, proc.stderr


def test_every_cap_has_a_probe():
    caps = {"FACTOR_LIMIT"}
    for module in pkgutil.iter_modules(cyclotile.__path__):
        names = vars(importlib.import_module("cyclotile." + module.name))
        caps.update(name for name in names if name.startswith("MAX_"))
    assert sorted(caps) == sorted(PROBES)
