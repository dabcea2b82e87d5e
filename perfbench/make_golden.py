"""Regenerate the golden reports of the shipped-config ops.

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes `perfbench/golden/<workload>/<config>.json` with the op's exit code
and report, and for `electro` the referee zeros of S_n (`build_family` plus
`zeros_of` at p + 256 bits).  Run it only on a commit whose reports are
known good: later runs are checked against these files.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath

import checks
import workloads
from worker import run_op


def main() -> None:
    from jacobisobolev import cli

    for workload in workloads.FIXED:
        os.makedirs(os.path.join(checks.GOLDEN_DIR, workload), exist_ok=True)
        for op in workloads.materialise(workload, 0, ""):
            code, outcome, out, err = run_op(cli.main, op["argv"])
            if outcome != "ok":
                sys.exit(f"{op['id']}: {outcome}\n{err}")
            golden = {"exit_code": code, "report": json.loads(out)}
            if op["command"] == "electro":
                bits = op["precision"] + checks.REFEREE_EXTRA_BITS
                ref = checks.referee_zeros(op)
                golden["referee_bits"] = bits
                golden["referee_zeros"] = [mpmath.nstr(z, checks.digits_of(bits)) for z in ref.real_roots]
            with open(checks.golden_path(workload, op["golden"]), "w", encoding="utf-8") as fh:
                json.dump(golden, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(op["id"], "written", flush=True)


if __name__ == "__main__":
    main()
