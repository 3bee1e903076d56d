"""The weight step as it was before update_weights skipped the
zero-handling passes for matrices with no zero dispersion, kept
verbatim. tests/test_weighting.py checks the new one against it byte
for byte."""
from __future__ import annotations

import numpy as np

from mwkmeans.core import DispersionMatrix
from mwkmeans.errors import NonFiniteError, NonpositiveDispersionError


def update_weights(dispersions: DispersionMatrix | np.ndarray, p: float) -> np.ndarray:
    """Optimal weight matrix for the given dispersions: each row is
    D_lv^(-1/(p-1)) renormalised to sum to 1.

    A row with zero dispersions takes the limiting weights: all mass
    split evenly over its zero-dispersion features (uniform 1/m when the
    whole row is zero). Positive rows are computed in the log domain so
    exponents 1/(p-1) of 100+ neither overflow nor underflow. A negative
    dispersion raises NonpositiveDispersionError, a NaN one NonFiniteError
    naming its cell.
    """
    d = dispersions.d if isinstance(dispersions, DispersionMatrix) else np.asarray(dispersions, dtype=float)
    d = np.atleast_2d(d)
    if not (d >= 0).all():
        nan = np.isnan(d)
        if nan.any():
            row, col = np.argwhere(nan)[0]
            raise NonFiniteError(int(row), int(col))
        raise NonpositiveDispersionError("dispersions must be nonnegative")
    zero = d == 0.0
    a = -np.log(np.where(zero, 1.0, d)) / (p - 1.0)
    if zero.any():
        a = np.where(zero.any(axis=1, keepdims=True), np.where(zero, 0.0, -np.inf), a)
    w = np.exp(a - a.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)
