"""Shared domain types for Minkowski weighted k-means.

All matrices are float64 numpy arrays, indexed 0-based: rows are points
or clusters, columns are features. Objects are frozen after construction
and hold read-only copies of the arrays they are given, so they can be
shared across concurrent restarts and never freeze the caller's arrays.
The exceptions are Dataset._adopt and DispersionMatrix._adopt, through
which the package hands over arrays it has just built and holds no
other reference to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidConfigError,
    NonFiniteError,
    NonNumericError,
    RaggedRowsError,
)
from .geometry import _MAX_P, DEFAULT_CENTER_TOL, _abs_pow

# Exponents p <= 1 + P_MARGIN are rejected: the weight update divides by
# p - 1 and the centre loses uniqueness at p = 1. So is p > geometry._MAX_P.
P_MARGIN = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only, C-contiguous copy of a; the caller's array stays writable."""
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a


def _seal(a: np.ndarray) -> np.ndarray:
    """a itself, C-contiguous and made read-only: no copy unless a is not
    C-contiguous. Only for arrays that nothing outside the package holds."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """An n x m matrix of finite feature values.

    Labels, when present, are carried for external evaluation only and
    are never consulted by the algorithm. Construction is the one place
    that rejects malformed input: with EmptyMatrixError, RaggedRowsError,
    or NonNumericError or NonFiniteError naming the first offending cell
    in row-major order.

    Dataset(...) holds read-only copies of the values and labels it is
    given; the caller's arrays stay writable. load_csv, generate and
    range_normalise build their arrays themselves and hand them over
    through _adopt, which makes them read-only in place instead.
    """

    values: np.ndarray
    feature_names: Optional[tuple[str, ...]] = None
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self._settle(_freeze)

    @classmethod
    def _adopt(cls, values: np.ndarray, feature_names=None, labels=None) -> "Dataset":
        """A Dataset holding values (a float64 array) and labels without
        copying them, checked as Dataset(...) checks them. For arrays the
        package has just built and keeps no other reference to: they
        become read-only in place."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "values", values)
        object.__setattr__(dataset, "feature_names", feature_names)
        object.__setattr__(dataset, "labels", labels)
        dataset._settle(_seal)
        return dataset

    def _settle(self, keep) -> None:
        """Check the fields and store values and labels through keep
        (_freeze copies them, _seal takes them over)."""
        try:
            values = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):
            shapes = {np.shape(row) for row in self.values}
            if len(shapes) > 1:
                raise RaggedRowsError(f"rows have differing shapes: {sorted(shapes)}") from None
            cells = np.asarray(self.values, dtype=object)
            for index in np.ndindex(cells.shape):
                try:
                    float(cells[index])
                except (TypeError, ValueError):
                    raise NonNumericError(index[0], index[1] if len(index) > 1 else 0) from None
            raise
        if values.size == 0:
            raise EmptyMatrixError("dataset must contain at least one row and one column")
        if values.ndim != 2:
            raise RaggedRowsError(f"expected a 2-D matrix, got ndim={values.ndim}")
        # a non-finite cell makes the sum non-finite, so the cell-by-cell
        # mask is built only then (or when a finite sum overflows)
        with np.errstate(over="ignore", invalid="ignore"):
            suspect = not np.isfinite(values.sum())
        if suspect:
            bad = ~np.isfinite(values)
            if bad.any():
                row, col = np.argwhere(bad)[0]
                raise NonFiniteError(int(row), int(col))
        if self.feature_names is not None and len(self.feature_names) != values.shape[1]:
            raise RaggedRowsError("feature_names length does not match column count")
        if self.labels is not None and len(self.labels) != values.shape[0]:
            raise RaggedRowsError("labels length does not match row count")
        object.__setattr__(self, "values", keep(values))
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.labels is not None:
            object.__setattr__(self, "labels", keep(np.asarray(self.labels)))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


def validate_dataset(
    values,
    feature_names: Optional[Sequence[str]] = None,
    labels=None,
) -> Dataset:
    """Build a Dataset from a raw matrix or a sequence of rows; Dataset
    copies the input and rejects it when malformed."""
    return Dataset(values=values, feature_names=feature_names, labels=labels)


@dataclass(frozen=True)
class MwkConfig:
    """Knobs for one clustering job. Validated on construction."""

    k: int
    p: float
    tol_objective: float = 1e-6
    max_iter: int = 100
    center_tol: float = DEFAULT_CENTER_TOL
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfigError(f"k must be >= 1, got {self.k}")
        if not 1.0 + P_MARGIN < self.p <= _MAX_P:
            raise InvalidConfigError(
                f"p must exceed 1 and be at most {_MAX_P:g} (got p={self.p}); the weight update"
                f" and the unique centre need p > 1, the centre solver's float range p <= {_MAX_P:g}"
            )
        if not self.tol_objective >= 0:  # NaN fails too
            raise InvalidConfigError(f"tol_objective must be nonnegative, got {self.tol_objective}")
        if self.max_iter < 1:
            raise InvalidConfigError("max_iter must be >= 1")
        if not self.center_tol > 0:  # NaN fails too
            raise InvalidConfigError(f"center_tol must be positive, got {self.center_tol}")
        if self.restarts < 1:
            raise InvalidConfigError("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidConfigError("seed must be nonnegative")


@dataclass(frozen=True)
class ClusteringState:
    """Assignments, centroids, per-cluster feature weights, and the
    objective value of one run."""

    assignments: np.ndarray  # (n,) int cluster indices in [0, k)
    centroids: np.ndarray  # (k, m)
    weights: np.ndarray  # (k, m), each row on the simplex
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "assignments", _freeze(np.asarray(self.assignments, dtype=int)))
        object.__setattr__(self, "centroids", _freeze(np.asarray(self.centroids, dtype=float)))
        object.__setattr__(self, "weights", _freeze(np.asarray(self.weights, dtype=float)))

    @property
    def k(self) -> int:
        return self.centroids.shape[0]


@dataclass(frozen=True)
class DispersionMatrix:
    """k x m matrix of within-cluster per-feature dispersions:
    d[l, v] = sum over points i in cluster l of |x_iv - z_lv|^p."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _freeze(np.asarray(self.d, dtype=float)))

    @classmethod
    def _adopt(cls, d: np.ndarray) -> "DispersionMatrix":
        """A DispersionMatrix holding d, a float64 array the package has
        just built and keeps no other reference to, made read-only in
        place instead of copied (as Dataset._adopt)."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "d", _seal(d))
        return matrix

    @property
    def k(self) -> int:
        return self.d.shape[0]

    @property
    def m(self) -> int:
        return self.d.shape[1]


def check_assignments(assignments, k: int, n: int) -> np.ndarray:
    """The assignments as an array, or DimensionMismatchError if they are
    not integers, if there is not exactly one per point, or naming the
    first point whose cluster index lies outside [0, k)."""
    assignments = np.asarray(assignments)
    if not np.issubdtype(assignments.dtype, np.integer):
        raise DimensionMismatchError(
            f"assignments must be integer cluster indices, got dtype {assignments.dtype}"
        )
    if assignments.shape != (n,):
        raise DimensionMismatchError(f"expected {n} assignments, got shape {assignments.shape}")
    # two reductions test the range; the mask is built only to name the point
    if n and (assignments.min() < 0 or assignments.max() >= k):
        i = int(np.flatnonzero((assignments < 0) | (assignments >= k))[0])
        raise DimensionMismatchError(
            f"point {i} is assigned to cluster {assignments[i]}, outside [0, {k})"
        )
    return assignments


def compute_dispersions(
    values: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, p: float
) -> DispersionMatrix:
    """Recompute the dispersion matrix from data, assignments, and centroids.

    One matrix product: the k x n cluster-membership indicator times the
    per-point deviations |x_iv - z_{a(i)v}|^p. Empty clusters get zero rows.
    """
    values = np.asarray(values, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    assignments = check_assignments(assignments, centroids.shape[0], values.shape[0])
    members = np.arange(centroids.shape[0])[:, None] == assignments
    dev = np.take(centroids, assignments, axis=0)  # a fresh array, so the powers go in place
    return DispersionMatrix._adopt(members @ _abs_pow(np.subtract(values, dev, out=dev), p, out=dev))


@dataclass(frozen=True)
class RunReport:
    """Everything observable about one run: the per-iteration objective
    trace, the final state, dispersions, objective bounds, and the
    objective linearly rescaled between those bounds."""

    objective_trace: tuple[float, ...]
    final_state: ClusteringState
    dispersions: DispersionMatrix
    bounds: Optional[tuple[float, float]]
    normalised_objective: Optional[float]
    iterations: int
    converged: bool
    # Iterations where an empty cluster was reseeded; the objective may
    # rise across these, so the monotone-trace guarantee excludes them.
    repair_iterations: tuple[int, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))
        object.__setattr__(self, "repair_iterations", tuple(int(i) for i in self.repair_iterations))
