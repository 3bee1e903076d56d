"""Alternating minimisation over assignments, centroids, and weights.

One iteration runs assign -> centroids -> weights, in that order. Each
step minimises the objective in its own block, so over repair-free
iterations the objective never increases and the loop terminates. An
emptied cluster is reseeded with the point farthest (by the current
weighted distance) from its assigned centroid; such iterations may raise
the objective and are reported separately.

There is one loop. The centre step solves all k x m centres in one call;
the dispersion step is one matrix product. Every |x - z|^p, here and in
the dispersions, is geometry._abs_pow, computed in place. Lloyd's
k-means baseline is the same loop at p = 2 with every weight frozen at 1.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import theory
from .core import (
    ClusteringState,
    Dataset,
    DispersionMatrix,
    MwkConfig,
    RunReport,
    check_assignments,
    compute_dispersions,
)
from .errors import EmptyClusterError, InvalidConfigError
from .geometry import _abs_pow, minkowski_center_columns
from .weighting import update_weights


@dataclass(frozen=True)
class EngineEvent:
    """Per-iteration observability record."""

    iteration: int
    objective: float
    n_reassigned: int
    n_empty_repaired: int


Observer = Callable[[EngineEvent], None]


def _values(dataset) -> np.ndarray:
    if isinstance(dataset, Dataset):
        return dataset.values
    return np.asarray(dataset, dtype=float)


def assign_points(dataset, centroids, weights, p: float) -> np.ndarray:
    """Nearest-centroid assignment under the weighted Minkowski
    distance; exact ties go to the lowest cluster index."""
    x = _values(dataset)
    centroids = np.asarray(centroids, dtype=float)
    wp = np.asarray(weights, dtype=float) ** p
    dists = np.empty((centroids.shape[0], x.shape[0]))
    buf = np.empty_like(x)  # one n x m buffer for every cluster
    for l, z in enumerate(centroids):
        np.matmul(_abs_pow(np.subtract(x, z, out=buf), p, out=buf), wp[l], out=dists[l])
    return np.argmin(dists, axis=0)


def update_centroids(
    dataset, assignments, k: int, p: float, center_tol: float, start=None
) -> np.ndarray:
    """Per-cluster, per-feature Minkowski centres, all solved in one pass
    over the points sorted by cluster. start (k x m), typically the
    previous centroids, warm-starts the solver.

    Raises DimensionMismatchError unless there is one assignment in
    [0, k) per point, and EmptyClusterError if any cluster has no
    members; the caller must repair empties before updating centroids.
    """
    x = _values(dataset)
    assignments = check_assignments(assignments, k, x.shape[0])
    counts = np.bincount(assignments, minlength=k)
    if (counts == 0).any():
        raise EmptyClusterError(int(np.flatnonzero(counts == 0)[0]))
    # stable, so each cluster keeps its points in data order; numpy radix
    # sorts small integer types, and a stable sort's permutation is unique
    order = np.argsort(assignments.astype(np.min_scalar_type(k - 1)), kind="stable")
    offsets = np.cumsum(counts) - counts
    return minkowski_center_columns(x[order], p, center_tol, offsets, start)


def _repair_empty(x, assignments, centroids, weights, p, k) -> int:
    """Reseed each empty cluster, in index order, with the point farthest
    from its currently assigned centroid (restricted to clusters of size
    >= 2, so no repair empties another cluster). Mutates assignments in
    place; returns the number of repairs."""
    counts = np.bincount(assignments, minlength=k)
    if counts.all():
        return 0
    dev = x - centroids[assignments]
    per_point = np.einsum("iv,iv->i", _abs_pow(dev, p, out=dev), weights[assignments] ** p)
    empty = np.flatnonzero(counts == 0)
    for l in empty:
        eligible = counts[assignments] >= 2
        if not eligible.any():
            break
        i = int(np.argmax(np.where(eligible, per_point, -np.inf)))
        counts[assignments[i]] -= 1
        counts[l] = 1
        assignments[i] = l
    return int(counts[empty].sum())


def _objective(weights: np.ndarray, dispersions: DispersionMatrix, p: float) -> float:
    return float(np.sum(weights**p * dispersions.d))


WeightStep = Callable[[DispersionMatrix, float], np.ndarray]


def _alternate(
    x: np.ndarray, config: MwkConfig, weight_step: WeightStep, observer: Optional[Observer]
) -> RunReport:
    """The alternating loop of run and run_classic_kmeans, with the
    weight step as a parameter; initial weights are its answer for equal
    dispersions. The report carries no bounds."""
    n, m = x.shape
    k, p = config.k, config.p
    if k > n:
        raise InvalidConfigError(f"k={k} exceeds n={n}")
    rng = np.random.default_rng(config.seed)
    centroids = x[rng.choice(n, size=k, replace=False)].astype(float)
    weights = weight_step(DispersionMatrix(d=np.ones((k, m))), p)
    prev_assign: Optional[np.ndarray] = None
    trace: list[float] = []
    repair_iters: list[int] = []
    converged = False

    for it in range(config.max_iter):
        assignments = assign_points(x, centroids, weights, p)
        n_reassigned = n if prev_assign is None else int(np.sum(assignments != prev_assign))
        repairs = _repair_empty(x, assignments, centroids, weights, p, k)
        # the same assignments as last time give the same centres,
        # dispersions and weights, so they are kept
        settled = prev_assign is not None and n_reassigned == 0 and repairs == 0
        if not settled:
            centroids = update_centroids(x, assignments, k, p, config.center_tol, centroids)
            dispersions = compute_dispersions(x, assignments, centroids, p)
            weights = weight_step(dispersions, p)
        objective = _objective(weights, dispersions, p)
        trace.append(objective)
        if repairs:
            repair_iters.append(it)
        if observer is not None:
            observer(EngineEvent(it, objective, n_reassigned, repairs))
        prev_assign = assignments
        if settled:
            converged = True
            break
        if len(trace) > 1:
            prev = trace[-2]
            rel = abs(prev - objective) / prev if prev > 0 else (0.0 if objective == 0 else np.inf)
            if rel <= config.tol_objective:
                converged = True
                break

    state = ClusteringState(
        assignments=assignments,
        centroids=centroids,
        weights=weights,
        objective=trace[-1],
    )
    return RunReport(
        objective_trace=tuple(trace),
        final_state=state,
        dispersions=dispersions,
        bounds=None,
        normalised_objective=None,
        iterations=len(trace),
        converged=converged,
        repair_iterations=tuple(repair_iters),
    )


def run(dataset: Dataset, config: MwkConfig, observer: Optional[Observer] = None) -> RunReport:
    """One full clustering run from a seeded random initialisation.

    Initial weights are uniform 1/m; initial centroids are k distinct
    data points drawn without replacement. The loop stops when an
    iteration reassigns nothing, when the relative objective change
    drops below tol_objective, or after max_iter iterations.
    """
    report = _alternate(dataset.values, config, update_weights, observer)
    bounds = theory.objective_bounds(report.dispersions, config.p)
    return dataclasses.replace(
        report,
        bounds=(bounds.lower, bounds.upper),
        normalised_objective=theory.normalised_objective(report.final_state.objective, bounds),
    )


def run_restarts(
    dataset: Dataset, config: MwkConfig, observer: Optional[Observer] = None
) -> tuple[RunReport, list[RunReport]]:
    """config.restarts independent runs with seeds seed, seed+1, ...;
    returns (best run by final objective, all runs in seed order)."""
    reports = [
        run(dataset, dataclasses.replace(config, seed=config.seed + i), observer)
        for i in range(config.restarts)
    ]
    best = min(reports, key=lambda r: r.final_state.objective)
    return best, reports


def _unit_weights(dispersions: DispersionMatrix, p: float) -> np.ndarray:
    return np.ones(dispersions.d.shape)


def run_classic_kmeans(
    dataset: Dataset,
    k: int,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> RunReport:
    """Baseline Lloyd's algorithm: squared Euclidean distance, mean
    centroids, no feature weights (the report carries uniform 1/m).

    This is the alternating loop at p = 2 with every weight frozen at 1,
    so the objective is exactly the sum of squared errors. The report's
    bounds and normalised objective are None: they are defined for the
    weighted objective only.
    """
    config = MwkConfig(k=k, p=2.0, tol_objective=tol, max_iter=max_iter, seed=seed)
    report = _alternate(dataset.values, config, _unit_weights, None)
    uniform = np.full((k, dataset.m), 1.0 / dataset.m)
    return dataclasses.replace(
        report, final_state=dataclasses.replace(report.final_state, weights=uniform)
    )
