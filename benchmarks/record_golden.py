#!/usr/bin/env python3
"""Write benchmarks/golden.json from the crankq sources in ./src.

Run from the repository root, only when a change is meant to alter task
outcomes, witnesses, report output or series coefficients:

    python3 benchmarks/record_golden.py
"""

import json
import random
import sys

import run


def record(workload, keys) -> dict:
    crankq = run.fresh_crankq()
    observed = {}
    for op in workload.inputs(random.Random(0), keys):
        key, obs = workload.observe(op, workload.call(crankq, op))
        if observed.setdefault(key, obs) != obs:
            raise SystemExit(f"{workload.name}: {key} observed two different values")
    return observed


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    task_ids = run.fresh_crankq().tasks.task_ids()
    golden = {"task_ids": task_ids}
    verify_ids = dict.fromkeys(t for t in task_ids if t not in run.ORACLE_TASKS)
    for name, keys in (("report", {}), ("verify-order", verify_ids),
                       ("series-build", {})):
        golden[name] = record(run.WORKLOADS[name], keys)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
