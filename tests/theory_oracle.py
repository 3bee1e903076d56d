"""theory's row functions as they were before they were trimmed to
fewer numpy calls per row, kept verbatim. tests/test_theory.py checks the
new ones against them with `==`, and tests/verify_oracle.py checks with
them."""
from __future__ import annotations

import numpy as np

from mwkmeans.core import DispersionMatrix
from mwkmeans.errors import NonFiniteError, NonpositiveValueError
from mwkmeans.theory import BoundsResult


def _logsumexp(a: np.ndarray) -> float:
    """log(sum exp(a)) of a 1-D float array: shift by the maximum, count
    its c ties out of the shifted sum s, and return
    log1p(s / c) + log(c) + max. A non-finite maximum is the answer
    itself (+inf, or -inf for all -inf input)."""
    a_max = a.max()
    if not np.isfinite(a_max):
        return a_max
    top = a == a_max
    e = np.exp(a - a_max)
    e[top] = 0.0
    c = np.count_nonzero(top)
    return np.log1p(e.sum() / c) + np.log(c) + a_max


def _reject(values: np.ndarray, message: str):
    """Raise for a failed sign test: NonFiniteError naming the first NaN
    cell if there is one, NonpositiveValueError otherwise."""
    nan = np.atleast_2d(np.isnan(values))
    if nan.any():
        row, col = np.argwhere(nan)[0]
        raise NonFiniteError(int(row), int(col))
    raise NonpositiveValueError(message)


def _as_matrix(dispersions) -> np.ndarray:
    d = dispersions.d if isinstance(dispersions, DispersionMatrix) else np.asarray(dispersions, dtype=float)
    d = np.atleast_2d(d)
    if not (d >= 0).all():
        _reject(d, "dispersions must be nonnegative")
    return d


def power_mean(values, r: float) -> float:
    """Power mean of order r: ((1/m) * sum v^r)^(1/r), computed in the
    log domain so large |r| neither overflows nor underflows."""
    values = np.asarray(values, dtype=float)
    if not (values > 0).all():
        _reject(values, "power mean requires positive values")
    if r == 0.0:
        raise ValueError("r = 0 is the geometric mean; use geometric_mean")
    log_v = np.log(values)
    return float(np.exp((_logsumexp(r * log_v) - np.log(values.size)) / r))


def geometric_mean(values) -> float:
    """(prod v)^(1/m), computed as exp of the mean log."""
    values = np.asarray(values, dtype=float)
    if not (values > 0).all():
        _reject(values, "geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))


def _row_objective(row: np.ndarray, p: float) -> float:
    """One cluster's contribution 1 / (sum_v D_v^(-1/(p-1)))^(p-1).

    A row containing a zero dispersion contributes 0, the limiting value
    as that dispersion approaches zero from above.
    """
    if (row == 0.0).any():
        return 0.0
    inv = 1.0 / (p - 1.0)
    return float(np.exp(-(p - 1.0) * _logsumexp(-inv * np.log(row))))


def objective_via_dispersions(dispersions, p: float) -> float:
    """Objective from dispersions alone (the weights are implicit):
    sum_l 1 / (sum_v D_lv^(-1/(p-1)))^(p-1)."""
    d = _as_matrix(dispersions)
    return float(sum(_row_objective(row, p) for row in d))


def objective_via_power_means(dispersions, p: float) -> float:
    """Same objective as a scaled sum of power means:
    (1/m^(p-1)) * sum_l M_r(row) with r = -1/(p-1)."""
    d = _as_matrix(dispersions)
    m = d.shape[1]
    r = -1.0 / (p - 1.0)
    prefactor = float(np.exp(-(p - 1.0) * np.log(m)))
    total = 0.0
    for row in d:
        if (row == 0.0).any():
            continue  # limiting contribution 0, matching _row_objective
        total += power_mean(row, r)
    return prefactor * total


def objective_bounds(dispersions, p: float) -> BoundsResult:
    """Lower and upper bounds for the objective:
    (1/m^(p-1)) * sum_l min_v D_lv  and  (1/m^(p-1)) * sum_l geomean(row).
    """
    d = _as_matrix(dispersions)
    m = d.shape[1]
    prefactor = float(np.exp(-(p - 1.0) * np.log(m)))
    mins = d.min(axis=1)
    geo = np.array([
        0.0 if (row == 0.0).any() else geometric_mean(row) for row in d
    ])
    return BoundsResult(
        lower=prefactor * float(mins.sum()),
        upper=prefactor * float(geo.sum()),
        per_cluster_min=tuple(float(v) for v in mins),
        per_cluster_geomean=tuple(float(v) for v in geo),
        prefactor=prefactor,
    )
