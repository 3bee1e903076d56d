"""Alternating minimisation over assignments, centroids, and weights.

One iteration runs assign -> centroids -> weights, in that order. Each
step minimises the objective in its own block, so over repair-free
iterations the objective never increases and the loop terminates. An
emptied cluster is reseeded with the point farthest (by the current
weighted distance) from its assigned centroid; such iterations may raise
the objective and are reported separately.

There is one loop, _one_run: one run as plain sequential code in a
generator that yields at its two batchable steps, the centre solve and
the weight update, and is sent their answers. _alternate drives a batch
of runs that differ in their seeds alone in rounds: run is the batch of
one, and run_restarts stacks up to _BATCH_ROWS rows of restarts per
batch. Each round advances every waiting run to its next request, then
answers the centre requests with one update_centroids call per grid
(coarse, fine; geometry stacks the runs' R x k clusters as blocks) and
the weight requests with one weight update over the stacked
dispersions. A block's bits and pass count depend on that block alone,
so runs at different steps can share a call, and each run gets the
bits and counts the passes of its own calls; assignment and the
dispersion product stay one call per run, so each run keeps its own
BLAS products. The centre solver works feature-major (see geometry): a
batch makes the C-contiguous (m, n) transpose of its points once
(_Points.columns), and update_centroids gathers each call's samples,
sorted by cluster, from it, so each (feature, cluster) cell is one
contiguous run. Each run stops by its own rules below. A failing run
ends the runs seeded after it, as running one by one would, and every
run's report, events and error equal those of the run alone. Every
|x - z|^p, here and in the dispersions, is geometry._abs_pow, computed
in place. Lloyd's k-means baseline is the same loop at p = 2 with every
weight frozen at 1.

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
raises DispersionOverflowError, naming p, before the weight step. The
overflows behind it, in assignment and in the dispersions, raise no
numpy warning on the way.
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
    MwkError,
)
from .geometry import _abs_pow, minkowski_center_columns
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
    """A batch's points with what the loop derives from them alone, once
    per batch: at p = 2 _squares(values), the terms of the p = 2 screen
    (None at other p), and columns, the C-contiguous (m, n) transpose
    that update_centroids gathers the centre solver's feature-major
    samples from. The loop passes it to assign_points and
    update_centroids in place of the points; every other caller's call
    derives its own."""

    values: np.ndarray
    squares: Optional[tuple]
    columns: np.ndarray


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


_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal


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

    The points are gathered feature-major, from the (m, n) transpose of
    the data into an (m, R n) array in which each (feature, cluster)
    cell is one contiguous run, and the solver gets its (R n, m) .T
    view, which it transposes back for free. The loop's _Points carry
    the transpose; any other dataset pays one transposing gather.

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
    columns = dataset.columns if isinstance(dataset, _Points) else x.T
    assignments = np.asarray(assignments)
    runs = assignments.shape[0] if assignments.ndim == 2 else 1  # 1-D: one run
    blocks = runs * k
    # run r's clusters become blocks r k, ..., r k + k - 1, as keys of the
    # smallest integer type, which numpy radix sorts
    keys = check_assignments(assignments.reshape(-1), k, runs * n).astype(np.min_scalar_type(blocks - 1))
    keys = keys.reshape(runs, n)
    keys += np.arange(0, blocks, k, dtype=keys.dtype)[:, None]
    counts = np.bincount(keys.reshape(-1), minlength=blocks)
    if (counts == 0).any():
        raise EmptyClusterError(int(np.flatnonzero(counts == 0)[0]) % k)
    # stable, so each cluster keeps its points in data order, and a
    # stable sort's permutation is unique; each run's row sorts alone
    order = np.argsort(keys, axis=1, kind="stable")
    offsets = np.cumsum(counts) - counts
    z = minkowski_center_columns(
        np.take(columns, order.reshape(-1), axis=1).T, p, center_tol, offsets,
        None if start is None else np.reshape(start, (blocks, -1)),
        coarse=coarse, _block_passes=_block_passes,
    )
    return z.reshape(assignments.shape[:-1] + (k, -1))


def _repair_empty(x, assignments, centroids, weights, p, k) -> int:
    """Reseed each empty cluster, in index order, with the point farthest
    from its currently assigned centroid (restricted to clusters of size
    >= 2, so no repair empties another cluster). Mutates assignments in
    place; returns the number of repairs, one per empty cluster. Raises
    EmptyClusterError naming the first cluster left empty, which happens
    only with fewer points than clusters.

    Where a weighted distance overflows to inf (or is NaN, an underflowed
    w^p times an overflowed |x - z|^p), the points are ranked by the log
    of their distances instead, log-sum-exp over the features of
    p (log w + log |x - z|), in which no term overflows; a zero weight
    makes its term count for nothing. Finite distances are ranked as
    they are."""
    counts = np.bincount(assignments, minlength=k)
    if counts.all():
        return 0
    dev = x - centroids[assignments]
    w = weights[assignments]
    per_point = np.einsum("iv,iv->i", _abs_pow(dev, p, out=dev), w**p)
    if not np.isfinite(per_point).all():
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = p * (np.log(w) + np.log(np.abs(x - centroids[assignments])))
        logs[w == 0.0] = -np.inf
        per_point = np.logaddexp.reduce(logs, axis=1)
    empty = np.flatnonzero(counts == 0)
    for l in empty:
        # rank eligible points only: a -inf sentinel for the rest would tie a -inf log distance
        eligible = np.flatnonzero(counts[assignments] >= 2)
        if not eligible.size:
            raise EmptyClusterError(int(l))
        i = int(eligible[np.argmax(per_point[eligible])])
        counts[assignments[i]] -= 1
        counts[l] = 1
        assignments[i] = l
    return len(empty)


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


def _one_run(x, points, config: MwkConfig, weights, events: Optional[list]):
    """One run of the alternating loop from the seeded start of config,
    as a generator that hands out its two batchable steps: it yields
    ("centres", assignments, start, coarse) and is sent (centroids,
    passes), the passes being those the solve makes for this run alone,
    and it yields ("weights", dispersions) and is sent the weights.
    Appends its EngineEvents to events unless that is None, and returns
    its report without bounds. Raises DispersionOverflowError where a
    dispersion is not finite; the MwkErrors of the steps it calls pass
    through."""
    n = x.shape[0]
    k, p, tol = config.k, config.p, config.tol_objective
    centroids = x[np.random.default_rng(config.seed).choice(n, size=k, replace=False)].astype(float)
    # only the iterative solver (p != 2) has a grid to coarsen; without
    # a coarse grid the loop solves fine throughout
    coarse = p != 2.0 and geometry._COARSE_GRID > 0.0
    assignments = dispersions = None
    trace, repair_iters = [], []
    converged = False
    for it in range(config.max_iter):
        # an overflow gives an infinite distance or dispersion, which
        # argmin and argmax take and DispersionOverflowError names; numpy's
        # error state is a context variable, so no yield sits inside a with
        with np.errstate(over="ignore", invalid="ignore"):
            new = assign_points(points, centroids, weights, p)
            n_reassigned = n if assignments is None else int(np.count_nonzero(new != assignments))
            repairs = _repair_empty(x, new, centroids, weights, p, k)  # after the count: it edits new
        # the same assignments as last time give the same centres,
        # dispersions, weights and objective, so they are kept
        settled = assignments is not None and n_reassigned == 0 and repairs == 0
        if coarse and (settled or it == config.max_iter - 1):  # rules (a) and (c)
            coarse = settled = False
        assignments = new
        if settled:
            objective = _objective(weights, dispersions, p)
        passes, resolved_fine = 0, False
        while not settled:
            centroids, solve_passes = yield "centres", assignments, centroids, coarse
            passes += solve_passes
            with np.errstate(over="ignore", invalid="ignore"):
                dispersions = compute_dispersions(x, assignments, centroids, p)
            if not np.isfinite(dispersions.d).all():  # data and centres are finite
                raise DispersionOverflowError(p)
            weights = yield "weights", dispersions.d
            objective = _objective(weights, dispersions, p)
            # rule (b) and the guard re-solve the same partition fine
            if not (coarse and trace and (
                _stalled(trace[-1], objective, tol) or (objective > trace[-1] and not repairs)
            )):
                break
            coarse, resolved_fine = False, True
        trace.append(objective)
        if repairs:
            repair_iters.append(it)
        if events is not None:
            events.append(EngineEvent(it, objective, n_reassigned, repairs, passes, resolved_fine))
        converged = settled or (len(trace) > 1 and _stalled(trace[-2], trace[-1], tol))
        if converged:
            break
    return RunReport(
        objective_trace=tuple(trace),
        final_state=ClusteringState(assignments, centroids, weights, trace[-1]),
        dispersions=dispersions,
        bounds=None,
        normalised_objective=None,
        iterations=len(trace),
        converged=converged,
        repair_iterations=tuple(repair_iters),
    )


def _alternate(
    x: np.ndarray, configs: list, weight_step: WeightStep, observer: Optional[Observer]
) -> list[RunReport]:
    """The alternating loop of run, run_restarts and run_classic_kmeans:
    the runs of configs, which differ in their seeds alone, each a
    _one_run driven in rounds (see the module docstring), with the
    weight step as a parameter; initial weights are its answer for equal
    dispersions. Returns one report per config, each without bounds and
    equal to that of the config alone; the observer sees the events of
    the configs one by one, in order. Where a run raises an MwkError,
    the observer sees what it would have seen up to that point had the
    runs gone one by one, and the error of the first failing run is
    raised. The stacked steps raise none: a run checks that its
    dispersions are finite before it asks for weights, and k <= n lets
    every repair fill its cluster, so no centre request has an empty one."""
    n, m = x.shape
    k, p, center_tol = configs[0].k, configs[0].p, configs[0].center_tol
    if k > n:
        raise InvalidConfigError(f"k={k} exceeds n={n}")
    weights = weight_step(np.ones((k, m)), p)
    points = _Points(x, _squares(x) if p == 2.0 else None, np.ascontiguousarray(x.T))
    events = [[] for _ in configs]  # held back for the observer
    runs = [
        _one_run(x, points, config, weights, None if observer is None else run_events)
        for config, run_events in zip(configs, events)
    ]
    outcomes = [None] * len(runs)  # each run's report or error
    answers = dict.fromkeys(range(len(runs)))  # each waiting run, in seed order, and what it is sent
    while answers:
        requests = {}
        for i, answer in answers.items():
            try:
                requests[i] = runs[i].send(answer)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except MwkError as error:
                # run one by one in seed order, the first failure would
                # end the later runs unstarted
                outcomes[i] = error
                break
        answers = dict.fromkeys(requests)
        for grid in (True, False):
            solving = [i for i, request in requests.items() if request[0] == "centres" and request[3] == grid]
            if solving:
                _, assignments, starts, _ = zip(*(requests[i] for i in solving))
                passes = None if observer is None else np.empty((len(solving), k), dtype=np.intp)
                centroids = update_centroids(
                    points, np.array(assignments), k, p, center_tol, np.array(starts), coarse=grid,
                    _block_passes=None if passes is None else passes.reshape(-1),
                )
                # a run alone makes as many passes as its slowest block
                run_passes = [0] * len(solving) if passes is None else passes.max(axis=1).tolist()
                answers.update(zip(solving, zip(centroids, run_passes)))
        weighing = [i for i, request in requests.items() if request[0] == "weights"]
        if weighing:
            stacked = weight_step(np.concatenate([requests[i][1] for i in weighing]), p)
            answers.update((i, stacked[j * k : (j + 1) * k]) for j, i in enumerate(weighing))
    for outcome, run_events in zip(outcomes, events):
        for event in run_events:
            observer(event)
        if isinstance(outcome, MwkError):
            raise outcome
    return outcomes


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
    runs in lock step, one stacked centre solve per grid and one weight
    update per round for the whole batch. Each report, each observer event
    and their order equal those of separate run calls in seed order, as
    does the error raised; a batch of one run is a run call.
    """
    configs = [dataclasses.replace(config, seed=config.seed + i) for i in range(config.restarts)]
    size = max(1, _BATCH_ROWS // dataset.n)
    reports = []
    for first in range(0, len(configs), size):
        batch = configs[first : first + size]
        # a run call: perfbench traces engine.run, and its CI smoke test needs engine.runs on wide-p2
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
