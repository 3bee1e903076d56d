"""Record tests/golden_verify.json from `mwk verify`.

Stores the full stdout of `mwk verify --trials 50 --seed s` for
s = 0..4, and the full stdout of `mwk verify --trials 200 --seed 3
--inject-fault NAME` for each check name (its one FAIL line and nine
PASS lines). tests/test_verify.py compares today's output with these
byte for byte. Record from the code the file should pin, for example a
`git archive` of the last commit, by pointing PYTHONPATH at its `src`:

    PYTHONPATH=path/to/checkout/src python tests/record_golden_verify.py

Takes a few seconds.
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from mwkmeans import verify
from mwkmeans.cli import main

GOLDEN_PATH = Path(__file__).with_name("golden_verify.json")
PASS_SEEDS = range(5)
PASS_TRIALS = 50
FAULT_SEED = 3
FAULT_TRIALS = 200


def verify_stdout(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process `mwk verify` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *argv])
    return code, out.getvalue()


def pass_argv(seed: int) -> list[str]:
    return ["--trials", str(PASS_TRIALS), "--seed", str(seed)]


def fault_argv(name: str) -> list[str]:
    return ["--trials", str(FAULT_TRIALS), "--seed", str(FAULT_SEED), "--inject-fault", name]


def record(path: Path = GOLDEN_PATH) -> None:
    golden = {
        "passing": {str(seed): verify_stdout(pass_argv(seed))[1] for seed in PASS_SEEDS},
        "faults": {name: verify_stdout(fault_argv(name))[1] for name in verify.CHECK_NAMES},
    }
    path.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    record()
