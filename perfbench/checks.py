"""Output checks for the benchmark's requests.

Each request's output is checked against the invariants it exposes
(see the North star in ROADMAP.md): weight rows sum to 1, the objective
trace is non-increasing outside repair iterations, the objective lies
within its bounds, no cluster is empty, and every `mwk verify` check
passes. On the default seed the outputs are also compared with the
golden outputs in golden.json: 1e-9 on numbers, identical best-run
assignments and identical verify verdicts.

Paper-claim tests (such as acceptance criterion 6c) are not output
invariants and are not checked here.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

TOL = 1e-9


def flag(argv: list[str], name: str) -> list[str]:
    """Values following `name` in a request's argv, up to the next flag."""
    i = argv.index(name) + 1
    j = i
    while j < len(argv) and not argv[j].startswith("--"):
        j += 1
    return argv[i:j]


def _weight_rows(rows, where: str) -> list[str]:
    problems = []
    for l, row in enumerate(rows):
        if any(not (w >= 0.0) for w in row):
            problems.append(f"{where}: row {l} has a negative or NaN weight")
        if not abs(math.fsum(row) - 1.0) <= TOL:
            problems.append(f"{where}: row {l} sums to {math.fsum(row)!r}")
    return problems


def check_cluster(path: Path, argv: list[str], stdout: str) -> tuple[list[str], dict]:
    """Invariants of a `mwk cluster` JSON report, and its golden record."""
    report = json.loads(path.read_text())
    best = report["best"]
    k = int(flag(argv, "--k")[0])
    problems = _weight_rows(best["weights"], "best.weights")
    trace = best["objective_trace"]
    repairs = set(best["repair_iterations"])
    for t in range(1, len(trace)):
        if t not in repairs and not trace[t] <= trace[t - 1] * (1 + TOL):
            problems.append(f"objective rose at iteration {t}: {trace[t - 1]!r} -> {trace[t]!r}")
    if best["iterations"] != len(trace):
        problems.append(f"iterations {best['iterations']} != trace length {len(trace)}")
    lower, upper = best["bounds"]["lower"], best["bounds"]["upper"]
    objective = best["objective"]
    eps = TOL * upper
    if not lower - eps <= objective <= upper + eps:
        problems.append(f"objective {objective!r} outside [{lower!r}, {upper!r}]")
    if not 0.0 <= best["normalised_objective"] <= 1.0:
        problems.append(f"normalised objective {best['normalised_objective']!r} outside [0, 1]")
    assignments = best["assignments"]
    empty = sorted(set(range(k)) - set(assignments))
    if empty:
        problems.append(f"empty clusters {empty}")
    if any(a not in range(k) for a in set(assignments)):
        problems.append("assignment outside [0, k)")
    if min(report["all_objectives"]) != objective:
        problems.append("best run is not the one with the lowest objective")
    record = {
        "assignments_sha256": hashlib.sha256(json.dumps(assignments).encode()).hexdigest(),
        "normalised_objective": [best["normalised_objective"]],
        "objectives": report["all_objectives"],
        "weights": [w for row in best["weights"] for w in row],
    }
    return problems, record


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_experiment(out_dir: Path, argv: list[str], stdout: str) -> tuple[list[str], dict]:
    """Invariants of a one-dataset `mwk experiment` output directory."""
    n_p = len(flag(argv, "--p"))
    k = int(flag(argv, "--k")[0])
    restarts = int(flag(argv, "--restarts")[0])
    m = int(flag(argv, "--informative")[0]) + int(flag(argv, "--noise")[0])
    problems = []

    features = defaultdict(list)
    for row in _read_rows(out_dir / "feature_weights.csv"):
        features[row["p"], int(row["cluster"])].append(float(row["weight"]))
    if len(features) != n_p * k or any(len(w) != m for w in features.values()):
        problems.append(f"feature_weights.csv: expected {n_p} x {k} rows of {m} weights")
    problems += _weight_rows(features.values(), "feature_weights.csv")

    ranked = defaultdict(list)
    for row in _read_rows(out_dir / "sorted_weights.csv"):
        ranked[row["p"], int(row["cluster"])].append(float(row["weight"]))
    problems += _weight_rows(ranked.values(), "sorted_weights.csv")
    if any(a < b for w in ranked.values() for a, b in zip(w, w[1:])):
        problems.append("sorted_weights.csv: weights not in descending order")

    by_p = defaultdict(list)
    for row in _read_rows(out_dir / "normalised_objective.csv"):
        by_p[row["p"]].append(float(row["value"]))
    values = [v for vs in by_p.values() for v in vs]
    if len(by_p) != n_p or any(len(vs) != restarts for vs in by_p.values()):
        problems.append(f"normalised_objective.csv: expected {n_p} x {restarts} values")
    if any(not 0.0 <= v <= 1.0 for v in values):
        problems.append("normalised_objective.csv: objective outside its bounds")

    means = json.loads((out_dir / "summary.json").read_text())["mean_normalised_objective"]
    for p, vs in by_p.items():
        if not abs(means.get(p, math.nan) - sum(vs) / len(vs)) <= TOL:
            problems.append(f"summary.json: mean at p={p} disagrees with the table")
    record = {
        "normalised_objective": values,
        "weights": [w for ws in features.values() for w in ws],
    }
    return problems, record


def check_verify(output: None, argv: list[str], stdout: str) -> tuple[list[str], dict]:
    """Every line of `mwk verify` output must be a PASS."""
    lines = stdout.splitlines()
    verdicts = [" ".join(line.split()[:2]) for line in lines]
    problems = [] if lines else ["no verify output"]
    problems += [f"check failed: {v}" for v in verdicts if not v.startswith("PASS ")]
    return problems, {"verdicts": verdicts}


CHECKS = {"sweep": check_experiment, "wide-p2": check_cluster, "verify": check_verify}


def compare(record: dict, golden: dict) -> tuple[float, list[str]]:
    """Largest relative difference of the numbers in `record` from the
    golden record, and the problems found (strings must be identical,
    numbers within TOL)."""
    err = 0.0
    problems = []
    for key, want in golden.items():
        got = record.get(key)
        if isinstance(want, str) or (want and isinstance(want[0], str)):
            if got != want:
                problems.append(f"{key} differs from the golden output")
        elif got is None or len(got) != len(want):
            problems.append(f"{key}: {len(want)} golden values, got {got and len(got)}")
        else:
            for a, b in zip(got, want):
                err = max(err, abs(a - b) / max(1.0, abs(b)))
    if not err <= TOL:
        problems.append(f"golden outputs differ by {err:.3e} (tolerance {TOL:g})")
    return err, problems


GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())
