"""Alternating minimisation over assignments, centroids, and weights.

One iteration runs assign -> centroids -> weights, in that order. Each
step minimises the objective in its own block, so over repair-free
iterations the objective never increases and the loop terminates. An
emptied cluster is reseeded with the point farthest (by the current
weighted distance) from its assigned centroid; such iterations may raise
the objective and are reported separately.

There is one loop, and it runs a batch of runs that differ in their
seeds alone in lock step: run is the batch of one, and run_restarts
stacks up to _BATCH_ROWS rows of restarts per batch. Each iteration
makes one centre solve for the batch's runs on the coarse grid and one
for the rest (geometry stacks their R x k clusters as blocks), and one
weight update over their stacked dispersions; assignment and the
dispersion product stay one call per run, so each run keeps its own
BLAS products. The solver reports its passes per block, so each run
counts the passes it would make alone. Each run stops by its own rules
below and then leaves the batch, and every run's report, events and
error equal those of the run alone. Every |x - z|^p, here and in the
dispersions, is geometry._abs_pow, computed in place. Lloyd's k-means
baseline is the same loop at p = 2 with every weight frozen at 1.

At p != 2 the centre solve iterates, and while points still move a
centre only has to steer the next assignment. So the loop solves on the
solver's coarse grid (geometry._COARSE_GRID of each range), and solves
at center_tol for good, warm-started from the coarse centres, once
(a) an iteration reassigns and repairs nothing: it re-solves instead of
settling; (b) the objective test fires: that iteration re-solves the
same partition, replaces its dispersions, weights, objective and trace
entry, and tests again (an observer sees only the final value); or
(c) the next iteration is the last that max_iter allows. A guard does
what rule (b) does when a coarse iteration that repaired nothing raises
the objective above the last trace entry: coarse centres (float32
inside geometry's window) may be off by up to two coarse cells, and a
fine solve of the same partition gives an objective no higher than the
last one (up to center_tol), so the trace never rises outside repairs. The grids nest and
the fine answer does not depend on its start, so every run ends with
the fine centres of its final partition; only earlier trace entries and
the iteration count can differ from solving fine throughout.

At p = 2 the assignment step first screens all k clusters with the
expansion |x|^2_w - 2 x.(w^2 z) + |z|^2_w, three matrix products. The
expansion cancels, so it only decides a point when every other cluster
is farther by more than a bound on the rounding error of the expansion
and of the direct loop together (_screen_p2). If any point is left
undecided, or a value could overflow, the whole call runs the direct
loop, which stays the only definition of the distance; either way the
answer is the direct loop's. The screen decides every point when the
data's common offset is not far larger than its spread, as after range
normalisation; data offset by about 1e6 times its spread falls back on
every call and pays for the screen on top of the loop. Its x^2 terms
depend on the points alone, so a batch computes them once and hands
them to assign_points with the points (_Points).

A dispersion that is not finite can only come from an overflow of
|x - z|^p or of its sum, since data and centres are finite; the loop
raises DispersionOverflowError, naming p, before the weight step.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import geometry, theory
from .core import (
    ClusteringState,
    Dataset,
    DispersionMatrix,
    MwkConfig,
    RunReport,
    check_assignments,
    compute_dispersions,
)
from .errors import (
    DimensionMismatchError,
    DispersionOverflowError,
    EmptyClusterError,
    InvalidConfigError,
)
from .geometry import _SMALLEST_SUBNORMAL, _UNIT_ROUNDOFF, _abs_pow, minkowski_center_columns
from .weighting import update_weights


@dataclass(frozen=True)
class EngineEvent:
    """Per-iteration observability record. center_passes counts the
    gradient passes of the iteration's centre solves, those the run
    would make alone in a batch too: 0 at p = 2 and on an iteration that
    keeps its centres. resolved_fine is True when rule
    (b) or the guard (see the module docstring) re-solved the iteration's
    partition fine; center_passes includes that re-solve."""

    iteration: int
    objective: float
    n_reassigned: int
    n_empty_repaired: int
    center_passes: int = 0
    resolved_fine: bool = False


Observer = Callable[[EngineEvent], None]


@dataclass(frozen=True)
class _Points:
    """A batch's points with _squares(values), the terms of the p = 2
    screen that depend on the points alone. The loop passes it to
    assign_points in place of the points, so the squares are computed
    once per batch; every other caller's call computes its own."""

    values: np.ndarray
    squares: tuple


def _values(dataset) -> np.ndarray:
    if isinstance(dataset, (Dataset, _Points)):
        return dataset.values
    return np.asarray(dataset, dtype=float)


def assign_points(dataset, centroids, weights, p: float) -> np.ndarray:
    """Nearest-centroid assignment under the weighted Minkowski
    distance sum_v w_lv^p |x_iv - z_lv|^p; exact ties go to the lowest
    cluster index.

    The answer is always the argmin of the direct loop: one n x m buffer
    per cluster, |x - z|^p in place, a product with w_l^p. At p = 2,
    _screen_p2 first tries to decide every point with one error-bounded
    expansion; it returns the same answer or gives the call back to the
    loop (ties, overflow, NaN, or a common offset far larger than the
    data's spread).

    Raises DimensionMismatchError unless points, centroids and weights
    have shapes (n, m), (k, m) and (k, m) with k >= 1.
    """
    x = _values(dataset)
    centroids = np.asarray(centroids, dtype=float)
    wp = np.asarray(weights, dtype=float) ** p
    if not (x.ndim == centroids.ndim == 2 and centroids.shape == wp.shape
            and centroids.shape[0] >= 1 and centroids.shape[1] == x.shape[1]):
        raise DimensionMismatchError(
            f"points {x.shape}, centroids {centroids.shape} and weights {wp.shape}"
            " must have shapes (n, m), (k, m) and (k, m) with k >= 1"
        )
    if p == 2.0:
        squares = dataset.squares if isinstance(dataset, _Points) else None
        assignments = _screen_p2(x, centroids, wp, squares)
        if assignments is not None:
            return assignments
    dists = np.empty((centroids.shape[0], x.shape[0]))
    buf = np.empty_like(x)  # one n x m buffer for every cluster
    for l, z in enumerate(centroids):
        np.matmul(_abs_pow(np.subtract(x, z, out=buf), p, out=buf), wp[l], out=dists[l])
    return np.argmin(dists, axis=0)


def _squares(x):
    """x^2 and its largest value."""
    with np.errstate(all="ignore"):  # an inf or NaN sends the screen to the loop
        xx = np.square(x)
        return xx, xx.max(initial=0.0)


def _screen_p2(x, z, wp, squares=None):
    """The direct loop's p = 2 assignments, or None where this cannot
    prove them. squares is _squares(x), or None to compute it here.

    d_li = sx_li - 2 (wp_l z_l).x_i + sz_l with sx_li = wp_l.x_i^2 and
    sz_l = wp_l.z_l^2: three products in (k, n) layout. Point i goes to
    cluster b when every other d_ji exceeds d_bi + E. E bounds the
    rounding error of both computations of both distances (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1:
    a dot product of m terms errs by at most gamma_m = m u / (1 - m u)
    times the dot product of absolute values; u = 2^-53):

    - direct loop: x - z, its square, then a dot product of m terms, so
      gamma_(m+3) D with D = wp.(x - z)^2 <= 2 (Sx + Sz), where
      (x - z)^2 <= 2 x^2 + 2 z^2 term by term;
    - expansion: sx and sz each carry gamma_(m+1), the cross term
      (one rounding in wp z, exact doubling, a dot product) gamma_(m+1)
      of its absolute value, at most Sx + Sz because 2 |x z| <= x^2 + z^2
      term by term, and the two additions gamma_2: in all
      gamma_(m+3) (|cross| + Sx + Sz) <= 2 gamma_(m+3) (Sx + Sz).

    Over the two distances of each computation that a comparison uses,
    that is 8 gamma_(m+3) (Sx + Sz); replacing the exact Sx, Sz by the
    largest computed sx, sz costs one more rounding, 8 gamma_(m+4). The
    code uses c = 16, twice that, which also covers the rounding of
    d_bi + E and of E itself. Gradual underflow adds an absolute error
    of at most eta / 2 per product or square (eta the smallest
    subnormal; sums and differences add none), which a later factor may
    scale by a weight (at most W) or by |x| (at most X): at most
    3 m eta (2 + W + X) over the four distances, taken twice.

    So a point whose column of d holds one value within E of its
    minimum goes to that cluster in the direct loop as well, and exact
    ties, which the loop sends to the lower index, never pass. The
    bound holds only without overflow: the screen requires
    8 (max sx + max sz + max x^2 + max z^2) to be finite, which keeps
    every (x - z)^2, every distance and every wp z finite, and is NaN
    for any NaN or infinite input. It then has one value within E of
    the minimum in every column exactly when there are n in all.
    """
    n, m = x.shape
    xx, x2max = _squares(x) if squares is None else squares
    with np.errstate(all="ignore"):  # any non-finite value sends the call to the loop
        d = wp @ xx.T  # sx for now
        del xx  # x^2 made here is freed before the next (k, n) product: fewer fresh pages
        zz = np.square(z)
        sz = (wp * zz).sum(axis=1)
        scale = d.max(initial=0.0) + sz.max()
        if not np.isfinite(8.0 * (scale + x2max + zz.max(initial=0.0))):
            return None
        d += sz[:, None]
        d += (-2.0 * (wp * z)) @ x.T
        gamma = (m + 4) * _UNIT_ROUNDOFF / (1 - (m + 4) * _UNIT_ROUNDOFF)
        bound = 16.0 * gamma * scale + 6.0 * (m + 4) * _SMALLEST_SUBNORMAL * (
            2.0 + wp.max(initial=0.0) + np.sqrt(x2max)
        )
        mask = d <= d.min(axis=0) + bound
    if np.count_nonzero(mask) != n:
        return None
    return _true_rows(mask)


def _true_rows(mask):
    """The row of the one True in each column of a boolean (k, n) mask:
    a float product, which numpy hands to BLAS (its integer matmul has no
    BLAS), sums one integer below k per column, exactly."""
    return (np.arange(mask.shape[0], dtype=float) @ mask).astype(np.intp)


def update_centroids(
    dataset,
    assignments,
    k: int,
    p: float,
    center_tol: float,
    start=None,
    *,
    coarse: bool = False,
    _block_passes: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cluster, per-feature Minkowski centres, all solved in one pass
    over the points sorted by cluster. start (k x m), typically the
    previous centroids, warm-starts the solver; coarse and _block_passes
    go to minkowski_center_columns.

    Assignments of shape (R, n), those of R runs over the same points,
    give (R, k, m) centres from one solver call over all R x k clusters,
    with start of that shape; each run's centres have the bits of its
    own call.

    Raises DimensionMismatchError unless there is one assignment in
    [0, k) per point, and EmptyClusterError if any cluster has no
    members; the caller must repair empties before updating centroids.
    """
    x = _values(dataset)
    n = x.shape[0]
    assignments = np.asarray(assignments)
    runs = assignments.shape[0] if assignments.ndim == 2 else 0
    if runs:  # run r's clusters become blocks r k, ..., r k + k - 1
        keys = check_assignments(assignments.reshape(-1), k, runs * n).reshape(runs, n)
        keys = (keys + k * np.arange(runs)[:, None]).reshape(-1)
    else:
        keys = check_assignments(assignments, k, n)
    blocks = max(runs, 1) * k
    counts = np.bincount(keys, minlength=blocks)
    if (counts == 0).any():
        raise EmptyClusterError(int(np.flatnonzero(counts == 0)[0]) % k)
    # stable, so each cluster keeps its points in data order; numpy radix
    # sorts small integer types, and a stable sort's permutation is unique
    order = np.argsort(keys.astype(np.min_scalar_type(blocks - 1)), kind="stable")
    if runs:  # run r's n points fill rows r n to r n + n - 1
        order.reshape(runs, n)[...] -= n * np.arange(runs)[:, None]
        start = None if start is None else np.reshape(start, (blocks, -1))
    offsets = np.cumsum(counts) - counts
    z = minkowski_center_columns(
        np.take(x, order, axis=0), p, center_tol, offsets, start,
        coarse=coarse, _block_passes=_block_passes,
    )
    return z.reshape(runs, k, -1) if runs else z


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


def _stalled(prev: float, objective: float, tol: float) -> bool:
    """The objective test: the relative change from prev is at most tol."""
    rel = abs(prev - objective) / prev if prev > 0 else (0.0 if objective == 0 else np.inf)
    return rel <= tol


WeightStep = Callable[[np.ndarray, float], np.ndarray]

# Rows of x that one batch of restarts stacks (run_restarts): a batch
# holds max(1, _BATCH_ROWS // n) runs. The centre solver keeps a few
# float64 arrays of the stacked (rows, m) shape, so its peak grows with
# the rows; capped at 2^15, a batch needs no more than one run of 2^15
# points, and no more than one run alone once n exceeds 2^14. All 20
# restarts of the reference protocol (n = 1000) fit in one batch, and a
# 100,000-row input runs one restart at a time.
_BATCH_ROWS = 2**15


@dataclass
class _Iteration:
    """What one run did in its current iteration, filled in as the loop
    goes: the run's EngineEvent, less the iteration, and whether the
    iteration kept its centres (settled)."""

    n_reassigned: int
    n_empty_repaired: int
    settled: bool
    objective: float = np.nan
    center_passes: int = 0
    resolved_fine: bool = False


@dataclass(eq=False)
class _Run:
    """One run's state in a batch of _alternate."""

    centroids: np.ndarray
    weights: np.ndarray
    coarse: bool  # solving on the coarse grid
    assignments: Optional[np.ndarray] = None
    dispersions: Optional[DispersionMatrix] = None
    record: Optional[_Iteration] = None
    trace: list = dataclasses.field(default_factory=list)
    repair_iters: list = dataclasses.field(default_factory=list)
    events: list = dataclasses.field(default_factory=list)  # held back for the observer
    converged: bool = False
    error: Optional[DispersionOverflowError] = None

    def report(self) -> RunReport:
        state = ClusteringState(
            assignments=self.assignments,
            centroids=self.centroids,
            weights=self.weights,
            objective=self.trace[-1],
        )
        return RunReport(
            objective_trace=tuple(self.trace),
            final_state=state,
            dispersions=self.dispersions,
            bounds=None,
            normalised_objective=None,
            iterations=len(self.trace),
            converged=self.converged,
            repair_iterations=tuple(self.repair_iters),
        )


def _block_step(x, runs, config: MwkConfig, weight_step: WeightStep, count_passes: bool) -> bool:
    """The centre, dispersion and weight steps of each run on its own
    assignments, warm-started from its centroids: one update_centroids
    call for the runs on the coarse grid and one for the others, one
    compute_dispersions call per run, and one weight_step call over the
    runs' stacked dispersions. Each run gets the bits of its own calls
    and, if count_passes, adds their solver passes to its record. A run
    whose dispersions overflow takes DispersionOverflowError as its
    error and keeps its weights; returns whether any did."""
    k, p = config.k, config.p
    groups: dict[bool, list] = {}
    for run in runs:
        groups.setdefault(run.coarse, []).append(run)
    for coarse, group in groups.items():
        if len(group) == 1:
            assignments, start = group[0].assignments, group[0].centroids
        else:
            assignments = np.stack([run.assignments for run in group])
            start = np.stack([run.centroids for run in group])
        passes = np.empty((len(group), k), dtype=np.intp) if count_passes else None
        centroids = update_centroids(
            x, assignments, k, p, config.center_tol, start, coarse=coarse,
            _block_passes=None if passes is None else passes.reshape(-1),
        )
        for run, z in zip(group, centroids.reshape(len(group), k, -1)):
            run.centroids = z
        if passes is not None:
            # a run alone makes as many passes as its slowest block
            for run, run_passes in zip(group, passes.max(axis=1).tolist()):
                run.record.center_passes += run_passes
    weighed = []
    for run in runs:
        run.dispersions = compute_dispersions(x, run.assignments, run.centroids, p)
        if np.isfinite(run.dispersions.d).all():  # data and centres are finite
            weighed.append(run)
        else:
            run.error = DispersionOverflowError(p)
    if len(weighed) == 1:
        weighed[0].weights = weight_step(weighed[0].dispersions.d, p)
    elif weighed:
        weights = weight_step(np.concatenate([run.dispersions.d for run in weighed]), p)
        for i, run in enumerate(weighed):
            run.weights = weights[i * k : (i + 1) * k]
    return len(weighed) < len(runs)


def _before_failure(runs, live):
    """The live runs that come before every failed run: run one by one
    in seed order, the first failure would end the others unstarted."""
    for i, run in enumerate(runs):
        if run.error is not None:
            earlier = runs[:i]
            return [run for run in live if run in earlier]
    return live


def _alternate(
    x: np.ndarray, configs: list, weight_step: WeightStep, observer: Optional[Observer]
) -> list[RunReport]:
    """The alternating loop of run, run_restarts and run_classic_kmeans:
    the runs of configs, which differ in their seeds alone, in lock step
    (see the module docstring), with the weight step as a parameter;
    initial weights are its answer for equal dispersions. Returns one
    report per config, each without bounds and equal to that of the
    config alone; the observer sees the events of the configs one by
    one, in order. Where a run raises, the observer sees what it would
    have seen up to that point had the runs gone one by one, and the
    error of the first failing run is raised."""
    n, m = x.shape
    config = configs[0]
    k, p, tol = config.k, config.p, config.tol_objective
    if k > n:
        raise InvalidConfigError(f"k={k} exceeds n={n}")
    weights = weight_step(np.ones((k, m)), p)
    # only the iterative solver (p != 2) has a grid to coarsen; without
    # a coarse grid the loop solves fine throughout
    coarse = p != 2.0 and geometry._COARSE_GRID > 0.0
    runs = [
        _Run(x[np.random.default_rng(c.seed).choice(n, size=k, replace=False)].astype(float), weights, coarse)
        for c in configs
    ]
    points = _Points(x, _squares(x)) if p == 2.0 else x
    live = runs
    for it in range(config.max_iter):
        for run in live:
            assignments = assign_points(points, run.centroids, run.weights, p)
            prev = run.assignments
            n_reassigned = n if prev is None else int(np.count_nonzero(assignments != prev))
            repairs = _repair_empty(x, assignments, run.centroids, run.weights, p, k)
            # the same assignments as last time give the same centres,
            # dispersions and weights, so they are kept
            settled = prev is not None and n_reassigned == 0 and repairs == 0
            if run.coarse and (settled or it == config.max_iter - 1):  # rules (a) and (c)
                run.coarse = settled = False
            run.assignments = assignments
            run.record = _Iteration(n_reassigned, repairs, settled)
        solving = [run for run in live if not run.record.settled]
        if solving and _block_step(x, solving, config, weight_step, observer is not None):
            live = _before_failure(runs, live)
        resolving = []
        for run in live:
            record, trace = run.record, run.trace
            record.objective = _objective(run.weights, run.dispersions, p)
            # rule (b) and the guard
            if run.coarse and trace and (
                _stalled(trace[-1], record.objective, tol)
                or (record.objective > trace[-1] and not record.n_empty_repaired)
            ):
                run.coarse = False
                record.resolved_fine = True
                resolving.append(run)
        if resolving and _block_step(x, resolving, config, weight_step, observer is not None):
            live = _before_failure(runs, live)
        for run in live:
            record, trace = run.record, run.trace
            if record.resolved_fine:
                record.objective = _objective(run.weights, run.dispersions, p)
            trace.append(record.objective)
            if record.n_empty_repaired:
                run.repair_iters.append(it)
            if observer is not None:
                run.events.append(EngineEvent(
                    it, record.objective, record.n_reassigned, record.n_empty_repaired,
                    record.center_passes, record.resolved_fine,
                ))
            run.converged = record.settled or (len(trace) > 1 and _stalled(trace[-2], trace[-1], tol))
        live = [run for run in live if not run.converged]
        if not live:
            break
    reports = []
    for run in runs:
        if observer is not None:
            for event in run.events:
                observer(event)
        if run.error is not None:
            raise run.error
        reports.append(run.report())
    return reports


def _with_bounds(report: RunReport, p: float) -> RunReport:
    bounds = theory.objective_bounds(report.dispersions, p)
    return dataclasses.replace(
        report,
        bounds=(bounds.lower, bounds.upper),
        normalised_objective=theory.normalised_objective(report.final_state.objective, bounds),
    )


def run(dataset: Dataset, config: MwkConfig, observer: Optional[Observer] = None) -> RunReport:
    """One full clustering run from a seeded random initialisation.

    Initial weights are uniform 1/m; initial centroids are k distinct
    data points drawn without replacement. The loop stops when an
    iteration reassigns nothing, when the relative objective change
    drops below tol_objective, or after max_iter iterations.
    """
    return _with_bounds(_alternate(dataset.values, [config], update_weights, observer)[0], config.p)


def run_restarts(
    dataset: Dataset, config: MwkConfig, observer: Optional[Observer] = None
) -> tuple[RunReport, list[RunReport]]:
    """config.restarts independent runs with seeds seed, seed+1, ...;
    returns (best run by final objective, all runs in seed order).

    The runs go through the loop in batches of max(1, _BATCH_ROWS // n)
    runs in lock step, one stacked centre solve and one weight update
    per iteration for the whole batch. Each report, each observer event
    and their order equal those of separate run calls in seed order, as
    does the error raised; a batch of one run is a run call.
    """
    configs = [dataclasses.replace(config, seed=config.seed + i) for i in range(config.restarts)]
    size = max(1, _BATCH_ROWS // dataset.n)
    reports = []
    for first in range(0, len(configs), size):
        batch = configs[first : first + size]
        if len(batch) == 1:
            reports.append(run(dataset, batch[0], observer))
        else:
            batch_reports = _alternate(dataset.values, batch, update_weights, observer)
            reports += [_with_bounds(report, config.p) for report in batch_reports]
    best = min(reports, key=lambda r: r.final_state.objective)
    return best, reports


def _unit_weights(dispersions: np.ndarray, p: float) -> np.ndarray:
    return np.ones(dispersions.shape)


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
    report = _alternate(dataset.values, [config], _unit_weights, None)[0]
    uniform = np.full((k, dataset.m), 1.0 / dataset.m)
    return dataclasses.replace(
        report, final_state=dataclasses.replace(report.final_state, weights=uniform)
    )
