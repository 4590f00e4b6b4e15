"""Run one cyclotile command with the layer tracer installed.

Usage: traced_cli.py DUMP OP_ID ARGS...

Behaves like `python -m cyclotile.cli ARGS...` and afterwards writes the
tracer's aggregates and spans, tagged with OP_ID, to the JSON file DUMP.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    dump, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    from cyclotile import cli

    code = cli.run(argv)
    sys.stdout.flush()
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump({"export": tracer.export(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
