"""Independent formulas for the clustering objective and its bounds.

The objective with optimal weights can be written purely in terms of the
dispersion matrix, in two equivalent forms:

  * sum over clusters of 1 / (sum_v D_lv^(-1/(p-1)))^(p-1), and
  * (1/m^(p-1)) * sum over clusters of the power mean of order
    r = -1/(p-1) of that cluster's dispersions.

Since r < 0 the power mean sits between the row minimum and the row
geometric mean, which gives computable lower and upper bounds for the
objective. These functions never touch the clustering loop, so they
serve as oracles against it.

Every log-domain sum goes through this module's own `_logsumexp`, which
shares nothing with `weighting`'s normalisation. It takes the standard
real-input steps in the standard order, so its bits equal the usual
library routine's (tests/test_theory.py checks them with `==`); numpy is
the only dependency.

The row functions make as few numpy calls as the same ufuncs in the
same order allow: ufunc reductions in place of array methods, one sign
test per matrix by its minimum, the log(c) of a tie count c skipped when
c is 1 (it adds +0.0). Their bits equal those of the plainer forms, which
tests/theory_oracle.py keeps and tests/test_theory.py compares with `==`.
exp and log stay numpy's: the math module's differ from them in the last
bit on some inputs.

A NaN input raises NonFiniteError naming its cell; a negative dispersion,
or a nonpositive value given to a mean, raises NonpositiveValueError; an
empty matrix or mean raises EmptyMatrixError. A mean takes a scalar as
one value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DispersionMatrix
from .errors import BoundViolationError, EmptyMatrixError, NonFiniteError, NonpositiveValueError


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper: float
    per_cluster_min: tuple[float, ...]
    per_cluster_geomean: tuple[float, ...]
    prefactor: float  # 1 / m^(p-1)


def _logsumexp(a: np.ndarray) -> float:
    """log(sum exp(a)) of a 1-D float array: shift by the maximum, count
    its c ties out of the shifted sum s, and return
    log1p(s / c) + log(c) + max. A non-finite maximum is the answer
    itself (+inf, or -inf for all -inf input)."""
    a_max = np.maximum.reduce(a)
    if not math.isfinite(a_max):
        return a_max
    top = a == a_max
    e = np.exp(a - a_max)
    e[top] = 0.0
    c = np.count_nonzero(top)
    if c == 1:  # log(1) would add +0.0, and log1p(s) of s >= 0 is never -0.0
        return np.log1p(np.add.reduce(e)) + a_max
    return np.log1p(np.add.reduce(e) / c) + np.log(c) + a_max


def _reject(values: np.ndarray, message: str):
    """Raise for a failed sign test: NonFiniteError naming the first NaN
    cell if there is one, NonpositiveValueError otherwise."""
    nan = np.atleast_2d(np.isnan(values))
    if nan.any():
        row, col = np.argwhere(nan)[0]
        raise NonFiniteError(int(row), int(col))
    raise NonpositiveValueError(message)


def _as_matrix(dispersions) -> tuple[np.ndarray, bool]:
    """The dispersions as a 2-D float array, and whether any is zero."""
    d = dispersions.d if isinstance(dispersions, DispersionMatrix) else np.asarray(dispersions, dtype=float)
    d = np.atleast_2d(d)
    if d.size == 0:
        raise EmptyMatrixError(f"dispersion matrix of shape {d.shape} is empty")
    low = np.minimum.reduce(d, axis=None)
    if not low >= 0:  # NaN fails too
        _reject(d, "dispersions must be nonnegative")
    return d, low == 0.0


def _positive(values, message: str) -> np.ndarray:
    """values as a 1-D float array of positive numbers (a scalar is one
    value); raises EmptyMatrixError for no values."""
    v = np.asarray(values, dtype=float)
    flat = v if v.ndim == 1 else v.reshape(-1)
    if flat.size == 0:
        raise EmptyMatrixError("no values to average")
    if not np.minimum.reduce(flat) > 0:  # NaN fails too
        _reject(v, message)
    return flat


def _power_mean(values: np.ndarray, r: float) -> float:
    log_v = np.log(values)
    log_v *= r
    return float(np.exp((_logsumexp(log_v) - np.log(float(values.size))) / r))


def _geometric_mean(values: np.ndarray) -> float:
    return float(np.exp(np.add.reduce(np.log(values)) / values.size))


def power_mean(values, r: float) -> float:
    """Power mean of order r: ((1/m) * sum v^r)^(1/r), computed in the
    log domain so large |r| neither overflows nor underflows."""
    values = _positive(values, "power mean requires positive values")
    if r == 0.0:
        raise ValueError("r = 0 is the geometric mean; use geometric_mean")
    return _power_mean(values, r)


def geometric_mean(values) -> float:
    """(prod v)^(1/m), computed as exp of the mean log."""
    return _geometric_mean(_positive(values, "geometric mean requires positive values"))


def _row_objective(row: np.ndarray, p: float) -> float:
    """One cluster's contribution 1 / (sum_v D_v^(-1/(p-1)))^(p-1), for
    a row of positive dispersions."""
    log_d = np.log(row)
    log_d *= -1.0 / (p - 1.0)
    return float(np.exp(-(p - 1.0) * _logsumexp(log_d)))


def objective_via_dispersions(dispersions, p: float) -> float:
    """Objective from dispersions alone (the weights are implicit):
    sum_l 1 / (sum_v D_lv^(-1/(p-1)))^(p-1).

    A row containing a zero dispersion contributes 0, the limiting value
    as that dispersion approaches zero from above.
    """
    d, has_zero = _as_matrix(dispersions)
    return float(sum(
        0.0 if has_zero and not np.minimum.reduce(row) > 0.0 else _row_objective(row, p) for row in d
    ))


def objective_via_power_means(dispersions, p: float) -> float:
    """Same objective as a scaled sum of power means:
    (1/m^(p-1)) * sum_l M_r(row) with r = -1/(p-1)."""
    d, has_zero = _as_matrix(dispersions)
    r = -1.0 / (p - 1.0)
    prefactor = float(np.exp(-(p - 1.0) * np.log(float(d.shape[1]))))
    total = 0.0
    for row in d:
        if has_zero and not np.minimum.reduce(row) > 0.0:
            continue  # limiting contribution 0, as in objective_via_dispersions
        total += _power_mean(row, r)
    return prefactor * total


def objective_bounds(dispersions, p: float) -> BoundsResult:
    """Lower and upper bounds for the objective:
    (1/m^(p-1)) * sum_l min_v D_lv  and  (1/m^(p-1)) * sum_l geomean(row).
    """
    d, _ = _as_matrix(dispersions)
    prefactor = float(np.exp(-(p - 1.0) * np.log(float(d.shape[1]))))
    mins = np.minimum.reduce(d, axis=1)
    per_cluster_min = mins.tolist()
    # a row of nonnegative dispersions holds a zero where its minimum is zero
    geo = np.array([0.0 if low == 0.0 else _geometric_mean(row) for row, low in zip(d, per_cluster_min)])
    return BoundsResult(
        lower=prefactor * float(np.add.reduce(mins)),
        upper=prefactor * float(np.add.reduce(geo)),
        per_cluster_min=tuple(per_cluster_min),
        per_cluster_geomean=tuple(geo.tolist()),
        prefactor=prefactor,
    )


def normalised_objective(objective: float, bounds: BoundsResult) -> float:
    """Objective rescaled linearly between its bounds, in [0, 1].

    Values within 1e-9 * upper of a bound are clamped; anything further
    outside raises BoundViolationError, and so does a NaN, which lies
    inside no bounds.
    """
    span = bounds.upper - bounds.lower
    if span == 0.0 and not math.isnan(objective):
        return 0.0
    eps = 1e-9 * bounds.upper
    if not bounds.lower - eps <= objective <= bounds.upper + eps:
        raise BoundViolationError(
            f"objective {objective} outside [{bounds.lower}, {bounds.upper}]"
        )
    t = (objective - bounds.lower) / span
    return float(min(1.0, max(0.0, t)))
