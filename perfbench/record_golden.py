"""Records golden.json: the outputs of every unit a full-size run on the
default seed sends, as compared by checks.compare.

    python3 perfbench/record_golden.py

Re-record only when a change to the program is meant to alter its
numerical output, and state the tolerance that change was held to.
"""
import json
import shutil
import tempfile
from pathlib import Path

import checks
import workloads
from worker import ROOT, outcome, request


def main():
    golden = {}
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=scratch))
    try:
        for name in workloads.WORKLOADS:
            count = workloads.unit_count(name, workloads.RUN_SECONDS, "full")
            plan = workloads.plan(name, workloads.DEFAULT_SEED, count, "full", workdir / name, 1)
            (workdir / name).mkdir()
            for argv in plan.setup:
                request(argv)
            records = []
            for argv, output in zip(plan.passes[0], plan.outputs[0]):
                problems, _, record = outcome(name, argv, output, *request(argv), None)
                if problems:
                    raise SystemExit(f"{name}: refusing to record failing output: {problems}")
                records.append(record)
            golden[name] = records
            print(f"{name}: {len(records)} units recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
