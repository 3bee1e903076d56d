"""Optimal per-cluster feature weights and the laws they obey.

The weight of feature v in cluster l is proportional to
D_lv^(-1/(p-1)), normalised so each cluster's weights sum to 1. Smaller
dispersion means larger weight, with the contrast controlled by p: near
1 the weights concentrate on the minimum-dispersion features, and for
fixed dispersions they flatten towards 1/m as p grows. Dispersions
computed from data depend on p too: D_lv^(1/p) tends to the largest
within-cluster deviation of feature v, so realised weights approach
values proportional to 1 / (within-cluster half-range), not 1/m.
"""
from __future__ import annotations

import numpy as np

from .core import DispersionMatrix
from .errors import EmptyMatrixError, InvalidCError, InvalidMError, NonFiniteError, NonpositiveDispersionError


def update_weights(dispersions: DispersionMatrix | np.ndarray, p: float) -> np.ndarray:
    """Optimal weight matrix for the given dispersions: each row is
    D_lv^(-1/(p-1)) renormalised to sum to 1.

    A row with zero dispersions takes the limiting weights: all mass
    split evenly over its zero-dispersion features (uniform 1/m when the
    whole row is zero). Positive rows are computed in the log domain so
    exponents 1/(p-1) of 100+ neither overflow nor underflow. A negative
    dispersion raises NonpositiveDispersionError, a NaN one NonFiniteError
    naming its cell, and an empty matrix EmptyMatrixError.
    """
    d = dispersions.d if isinstance(dispersions, DispersionMatrix) else np.asarray(dispersions, dtype=float)
    d = np.atleast_2d(d)
    if d.size == 0:
        raise EmptyMatrixError(f"dispersion matrix of shape {d.shape} is empty")
    low = np.minimum.reduce(d, axis=None)
    if not low >= 0:  # NaN fails too
        nan = np.isnan(d)
        if nan.any():
            row, col = np.argwhere(nan)[0]
            raise NonFiniteError(int(row), int(col))
        raise NonpositiveDispersionError("dispersions must be nonnegative")
    zero = d == 0.0 if low == 0.0 else None
    a = np.log(d if zero is None else np.where(zero, 1.0, d))
    a /= 1.0 - p
    if zero is not None:
        a = np.where(zero.any(axis=1, keepdims=True), np.where(zero, 0.0, -np.inf), a)
    a -= np.maximum.reduce(a, axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= np.add.reduce(a, axis=1, keepdims=True)
    return a


def weight_ratio(d_u: float, d_v: float, p: float) -> float:
    """Exact ratio w_u / w_v implied by dispersions d_u, d_v:
    (d_v / d_u)^(1/(p-1))."""
    if not (d_u > 0 and d_v > 0):  # NaN fails too
        raise NonpositiveDispersionError("dispersions must be positive")
    return float((d_v / d_u) ** (1.0 / (p - 1.0)))


def pairwise_suppression_bound(C: float, p: float) -> float:
    """Upper bound C^(-1/(p-1)) on w_u / w_v whenever feature u's
    dispersion is at least C times feature v's."""
    if not C > 1.0:  # NaN fails too
        raise InvalidCError(f"C must exceed 1, got {C}")
    return float(C ** (-1.0 / (p - 1.0)))


def global_suppression_bound(C: float, m: int, p: float) -> float:
    """Upper bound 1 / (1 + (m-1) * C^(1/(p-1))) on the weight of a
    feature whose dispersion is at least C times every other feature's."""
    if not C > 1.0:  # NaN fails too
        raise InvalidCError(f"C must exceed 1, got {C}")
    if m < 2:
        raise InvalidMError(f"m must be >= 2, got {m}")
    return float(1.0 / (1.0 + (m - 1) * C ** (1.0 / (p - 1.0))))
