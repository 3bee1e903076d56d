"""Shared test utilities: independent oracles and small fixtures."""
from __future__ import annotations

import itertools

import numpy as np


def grid_search_center(samples, p: float, step: float = 1e-6) -> float:
    """Brute-force minimiser of f(z) = sum |s - z|^p by staged grid
    refinement down to the given step.

    f is strictly convex, so the argmin over a grid of spacing s lies
    within s of the true minimiser and each refinement stage may shrink
    the bracket to the two cells around the grid argmin.
    """
    samples = np.asarray(samples, dtype=float)
    lo = float(samples.min())
    hi = float(samples.max())
    while True:
        s = max((hi - lo) / 2000.0, step)
        zs = np.arange(lo, hi + s, s)
        f = np.abs(samples[:, None] - zs[None, :]) ** p
        i = int(np.argmin(f.sum(axis=0)))
        if s <= step:
            return float(zs[i])
        lo = float(zs[max(i - 1, 0)])
        hi = float(zs[min(i + 1, len(zs) - 1)])


def brute_force_objective(values, assignments, centroids, weights, p: float) -> float:
    """Objective evaluated straight from its definition: the triple sum
    over clusters, member points, and features of w^p |x - z|^p."""
    total = 0.0
    k = centroids.shape[0]
    for l in range(k):
        for x in values[assignments == l]:
            for v in range(values.shape[1]):
                total += weights[l, v] ** p * abs(x[v] - centroids[l, v]) ** p
    return total


def best_label_agreement(labels_a, labels_b, k: int) -> float:
    """Fraction of points on which two labelings agree under the best
    permutation of cluster indices."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    best = 0
    for perm in itertools.permutations(range(k)):
        mapped = np.array([perm[l] for l in labels_b])
        best = max(best, int(np.sum(labels_a == mapped)))
    return best / len(labels_a)


def two_blob_dataset(n_per_blob: int = 100, separation: float = 10.0, seed: int = 7):
    """Two spherical unit-variance blobs separated by `separation` sigma
    on both coordinates; returns (values, labels)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (n_per_blob, 2))
    b = rng.normal(separation, 1.0, (n_per_blob, 2))
    values = np.vstack([a, b])
    labels = np.array([0] * n_per_blob + [1] * n_per_blob)
    return values, labels


def coarse_cell(column, center_tol: float) -> float:
    """The width of geometry's coarse grid cell for one column: the
    largest power of 2 no wider than 0.5 center_tol / half, 4 machine
    epsilons or geometry._COARSE_GRID, whichever is widest, times the
    range."""
    from mwkmeans import geometry

    lo, hi = float(np.min(column)), float(np.max(column))
    half = 0.5 * hi - 0.5 * lo
    if half == 0.0:
        return 0.0
    tol = max(0.5 * center_tol / half, 4 * np.finfo(float).eps, geometry._COARSE_GRID)
    return min(2.0 ** (np.frexp(tol)[1] - 1), 1.0) * (hi - lo)


def coarse_bound(column, p: float, center_tol: float) -> float:
    """How far geometry's coarse answer for one column may lie from its
    fine answer: half a coarse cell plus, inside the float32 window, the
    root shift 2^-23 (1 + 1/(p - 1)) of the range derived in geometry,
    plus the rounding of mapping back."""
    from mwkmeans import geometry

    lo, hi = float(np.min(column)), float(np.max(column))
    shift = 2.0**-23 * (1.0 + 1.0 / (p - 1.0)) if geometry._in_f32_window(p) else 0.0
    return coarse_cell(column, center_tol) / 2 + shift * (hi - lo) + 4 * np.spacing(max(abs(lo), abs(hi)))
