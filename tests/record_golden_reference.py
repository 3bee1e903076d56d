"""Record tests/golden_reference.json from the reference experiment.

Runs the same `mwk experiment` command as the `reference_experiment`
fixture in test_acceptance.py (10 datasets x p in {1.1, 1.5, 2, 5} x 20
restarts) and stores its 800 normalised objectives and 960 best-run
feature weights. Run from the repository root:

    PYTHONPATH=src python tests/record_golden_reference.py

Takes about a minute and a half. See test_golden_reference for when the
file may be re-recorded.
"""
from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

from mwkmeans.cli import main

REFERENCE_ARGS = [
    "experiment", "--datasets", "10", "--restarts", "20",
    "--p", "1.1", "1.5", "2", "5",
    "--n-points", "1000", "--informative", "4", "--noise", "4",
    "--clusters", "3", "--k", "3",
]
GOLDEN_PATH = Path(__file__).with_name("golden_reference.json")


def rows_as_golden(normalised_rows, weight_rows) -> dict:
    """The golden layout: one [dataset, p, run, value] entry per
    normalised objective and one [dataset, p, cluster, feature, weight]
    entry per best-run weight, in file order."""
    return {
        "normalised_objective": [
            [int(r["dataset"]), float(r["p"]), int(r["run"]), float(r["value"])]
            for r in normalised_rows
        ],
        "feature_weights": [
            [int(r["dataset"]), float(r["p"]), int(r["cluster"]), int(r["feature"]),
             float(r["weight"])]
            for r in weight_rows
        ],
    }


def record(path: Path = GOLDEN_PATH) -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        if main(REFERENCE_ARGS + ["--out-dir", out_dir]) != 0:
            sys.exit("reference experiment failed")
        out = Path(out_dir)
        golden = rows_as_golden(
            list(csv.DictReader(open(out / "normalised_objective.csv"))),
            list(csv.DictReader(open(out / "feature_weights.csv"))),
        )
    # one entry per line keeps diffs of a re-recording readable
    blocks = [
        f'"{key}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for key, rows in golden.items()
    ]
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    record()
