"""Weighted Minkowski distance and the 1-D Minkowski-centre solver.

For p > 1 the per-feature centre objective f(z) = sum_i |s_i - z|^p is
strictly convex, so its derivative is continuous and strictly increasing
and the minimiser is found by bisection on the derivative over
[min(samples), max(samples)]. One bisection loop serves every caller: it
solves all columns of all contiguous row blocks at once (the engine's k
clusters x m features in one pass), and the scalar solver is its
one-block, one-column case. All functions here are pure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

DEFAULT_CENTER_TOL = 1e-10


@dataclass(frozen=True)
class CenterSolveResult:
    z: float  # minimiser, always within [min(samples), max(samples)]
    f_value: float  # objective at z
    iterations: int
    bracket_width: float  # final search-interval width, <= center_tol


def weighted_minkowski_distance(x, z, w, p: float) -> float:
    """Distance sum_v w_v^p * |x_v - z_v|^p (no outer p-th root)."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    if not (x.shape == z.shape == w.shape):
        raise DimensionMismatchError(
            f"shape mismatch: x{x.shape}, z{z.shape}, w{w.shape}"
        )
    return float(np.sum(w**p * np.abs(x - z) ** p))


def center_objective(samples, p: float, z: float) -> float:
    """f(z) = sum_i |s_i - z|^p."""
    samples = np.asarray(samples, dtype=float)
    return float(np.sum(np.abs(samples - z) ** p))


def center_gradient(samples, p: float, z: float) -> float:
    """f'(z) = sum_i p * sign(z - s_i) * |z - s_i|^(p-1)."""
    samples = np.asarray(samples, dtype=float)
    d = z - samples
    return float(np.sum(p * np.sign(d) * np.abs(d) ** (p - 1)))


def _bisect_blocks(matrix: np.ndarray, offsets: np.ndarray, p: float, center_tol: float):
    """Bisection on f' for every (block, column) cell of a matrix whose
    rows fall into contiguous blocks starting at the given offsets.

    Each cell's bracket starts at its block's [min, max] and halves until
    its width drops below center_tol or it stops shrinking at float
    resolution. p = 2 takes the closed-form mean. Returns the final
    (lo, hi) brackets and per-cell step counts, each of shape (blocks, m).
    """
    sizes = np.diff(np.append(offsets, matrix.shape[0]))
    if p == 2.0:
        mean = np.add.reduceat(matrix, offsets, axis=0) / sizes[:, None]
        return mean, mean, np.zeros(mean.shape, dtype=int)
    lo = np.minimum.reduceat(matrix, offsets, axis=0)
    hi = np.maximum.reduceat(matrix, offsets, axis=0)
    iterations = np.zeros(lo.shape, dtype=int)
    while True:
        mid = 0.5 * (lo + hi)
        active = (hi - lo > center_tol) & (mid > lo) & (mid < hi)
        if not active.any():
            return lo, hi, iterations
        d = np.repeat(mid, sizes, axis=0) - matrix
        g = np.add.reduceat(np.sign(d) * np.abs(d) ** (p - 1.0), offsets, axis=0)
        lo = np.where(active & (g < 0.0), mid, lo)
        hi = np.where(active & (g >= 0.0), mid, hi)
        iterations += active


def minkowski_center(samples, p: float, center_tol: float = DEFAULT_CENTER_TOL) -> CenterSolveResult:
    """Unique minimiser of f(z) = sum_i |s_i - z|^p for p > 1.

    p = 2 takes the closed-form mean; otherwise bisection on f' until the
    bracket width drops below center_tol.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    lo, hi, iterations = _bisect_blocks(samples.reshape(-1, 1), np.zeros(1, dtype=int), p, center_tol)
    lo, hi = float(lo[0, 0]), float(hi[0, 0])
    z = 0.5 * (lo + hi)
    return CenterSolveResult(
        z=z,
        f_value=center_objective(samples, p, z),
        iterations=int(iterations[0, 0]),
        bracket_width=hi - lo,
    )


def minkowski_center_columns(
    matrix: np.ndarray, p: float, center_tol: float = DEFAULT_CENTER_TOL, offsets=None
) -> np.ndarray:
    """Column-wise Minkowski centres of an (n, m) matrix.

    Without offsets the rows form one sample and the result has shape
    (m,). With offsets (strictly increasing row indices starting at 0,
    as for np.add.reduceat) each run of rows from one offset to the next
    is its own sample and the result has shape (len(offsets), m); the
    clustering engine passes its points sorted by cluster this way.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] == 0:
        raise ValueError("matrix must have at least one row")
    blocks = np.zeros(1, dtype=int) if offsets is None else np.asarray(offsets, dtype=int)
    if blocks.size == 0 or blocks[0] != 0 or (np.diff(blocks) <= 0).any() or blocks[-1] >= matrix.shape[0]:
        raise ValueError("offsets must start at 0 and strictly increase below the row count")
    lo, hi, _ = _bisect_blocks(matrix, blocks, p, center_tol)
    z = 0.5 * (lo + hi)
    return z[0] if offsets is None else z
