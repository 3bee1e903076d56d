"""Weighted Minkowski distance and the 1-D Minkowski-centre solver.

For p > 1 the per-feature centre objective f(z) = sum_i |s_i - z|^p is
strictly convex, so its derivative f' is continuous and strictly
increasing and the minimiser is its root in [min(samples),
max(samples)]. One root finder serves every caller: it solves all
columns of all contiguous row blocks at once (the engine's k clusters x
m features of every run in its batch in one pass over the points), and
the scalar solver is its one-block, one-column case. It keeps its
samples feature-major, in an (m, rows) array in which each (feature,
block) cell is one contiguous run, so every per-cell sum, minimum and
maximum reads one stride-1 run. Each cell starts
from a given point (the engine passes the previous iteration's centres)
or from the block mean, steps towards the root until f' changes sign,
then closes the bracket with Chandrupatla's inverse-quadratic/bisection
hybrid (Chandrupatla 1997, Adv. Eng. Software 28:145); near p = 1, where
f' is almost a step, it bisects. Every evaluation lies on the grid that
bisection of [min, max] down to center_tol would visit, and the result
is the midpoint of the grid cell holding the root, so it does not depend
on the start. A coarse solve floors that grid at _COARSE_GRID of [min,
max]. Both grids are powers of two of the same range, so the fine grid
refines the coarse one: in float64 the coarse answer lies within half a
coarse cell of the fine one, and a fine solve started from it returns
the cold fine answer. The engine solves coarse while points still move
and fine at the end (see engine). Inside the float32 window, 1.09375 <=
p <= 64, a coarse solve evaluates f' in float32 with float64 sums (mixed
precision as in Higham & Mary 2022, Acta Numerica 31:347): that moves
its root by at most 2^-23 (1 + 1/(p - 1)) of the range, so its answer
lies within half a coarse cell plus that shift of the fine one, under
two cells; the fine solve from it is unchanged. p = 2 takes the
closed-form mean, always clipped into [min, max] because a rounded
mean can leave it by an ulp; where the sum passes the float range, the
mean is the sum of each value over the block's size. All
functions here are pure; _abs_pow is the one |x - z|^p kernel of the
package, used by every caller (a float32 pass at p = 5 squares twice
instead).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NonFiniteError

DEFAULT_CENTER_TOL = 1e-10

# Largest p whose smallest farthest-sample term, 2^-(p-1) on the [0, 1]
# scale, is a normal float; above it f' underflows to 0 mid-bracket.
_MAX_P = 1.0 - np.finfo(float).minexp
# Below this p the loop bisects: on the reference protocol the inverse
# quadratic step saves 2 of 31 passes at p = 1.1, too few to pay for its
# bookkeeping, but 9 of 30 at p = 1.2.
_IQI_MIN_P = 1.15
# After this many passes every closed bracket bisects, so the loop ends
# within about log2(1 / tol) more passes whatever the data.
_IQI_PASSES = 60
_OVERSHOOT = 1.5  # expansion steps aim this far past the estimated root
_GROWTH = 2.0  # and grow at least this fast
# The grid of a coarse solve on the [0, 1] scale. At 2^-17 and 2^-14
# some reference runs end in another partition; at 2^-20 none did.
_COARSE_GRID = 2.0**-20
# The float32 window of coarse passes (see _solve_blocks). A float32
# pass moves the root of f' by at most s(p) = 2^-23 (1 + 1/(p - 1)) of
# the range: each rounding of a term |d|^q (q = p - 1, |d| <= 1) equals
# an exact term with its sample moved, and the root, monotone in each
# sample, moves by at most the largest such move: 2^-25 for rounding
# the sample, 2^-24 |d| for the difference, 2^-24 |d ln d| <= 2^-24 / e
# for rounding q, and 2^-23 |d| / q for a power within one ulp (numpy's
# float32 power measures within 1.01 ulp, relative error below
# 0.88 x 2^-23, which leaves room for the float64 sums of blocks under
# 2^26 rows); at q = 4 the two squares err by 3 x 2^-24 and q is exact.
# At the lower end, 1 + 3/32, s is 1.46 cells of 2^-20, so a coarse
# answer stays under 1.96 cells from the fine one; below it s grows as
# 2^-23 / q, to 125 cells at p = 1.001. Above the upper end, terms
# under float32's normal range (2^-126, each rounded by up to 2^-149)
# weigh against a farthest term of only 2^-q, and with f'' >= q 2^(1-q)
# n of them move the root by up to n 2^(q-150) / q: half a cell for
# 1000 rows at p = 127, but under 2^-47 at p <= 64 for blocks under
# 2^40 rows.
_F32_MIN_P = 1.09375
_F32_MAX_P = 64.0


def _in_f32_window(p: float) -> bool:
    # s(p) above needs cells of at least 2^-20; without a coarse grid a
    # coarse solve is a fine one, in float64
    return _F32_MIN_P <= p <= _F32_MAX_P and _COARSE_GRID >= 2.0**-20


@dataclass(frozen=True)
class CenterSolveResult:
    z: float  # minimiser, always within [min(samples), max(samples)]
    f_value: float  # objective at z
    iterations: int  # gradient evaluations (passes over the samples)
    # final sign-change bracket width: <= center_tol, or 4 machine
    # epsilons of the sample range where float resolution stops it
    bracket_width: float


def _abs_pow(a, p: float, out=None):
    """|a|^p into out (which may be a), with the bits of np.abs(a) ** p:
    a square at p = 2, else abs then numpy's same in-place scalar power."""
    if p == 2.0:
        return np.square(a, out=out)
    out = np.abs(a, out=out)
    out **= p
    return out


def weighted_minkowski_distance(x, z, w, p: float) -> float:
    """Distance sum_v w_v^p * |x_v - z_v|^p (no outer p-th root)."""
    x, z, w = (np.asarray(a, dtype=float) for a in (x, z, w))
    if not (x.shape == z.shape == w.shape):
        raise DimensionMismatchError(f"shape mismatch: x{x.shape}, z{z.shape}, w{w.shape}")
    return float(np.sum(w**p * _abs_pow(x - z, p)))


def center_objective(samples, p: float, z: float) -> float:
    """f(z) = sum_i |s_i - z|^p."""
    samples = np.asarray(samples, dtype=float)
    return float(np.sum(_abs_pow(samples - z, p)))


def center_gradient(samples, p: float, z: float) -> float:
    """f'(z) = sum_i p * sign(z - s_i) * |z - s_i|^(p-1)."""
    samples = np.asarray(samples, dtype=float)
    d = z - samples
    return float(np.sum(p * np.sign(d) * _abs_pow(d, p - 1)))


def _solve_blocks(matrix, offsets, p: float, center_tol: float, start=None, coarse=False, block_passes=None):
    """Minkowski centres of every (block, column) cell of a matrix whose
    rows fall into contiguous blocks starting at the given offsets.

    The solver works feature-major: it takes the (m, rows) transpose of
    the matrix, in which each (feature, block) cell is one contiguous run
    of samples, and reduces every cell along axis 1. That transpose is a
    copy unless matrix is the .T view of a C-contiguous (m, rows) array,
    as the engine passes it. All arrays below are (m, blocks) or (m,
    rows); the results are returned as (blocks, m) views.

    Each cell's deviations are divided once by its block's half-range,
    which keeps the sign and the root of f' and puts the samples in
    [0, 1]; there no power |d|^(p-1) overflows, and the farthest
    sample's term, at least 2^-(p-1), stays a normal float. The grid is
    the one bisection of [0, 1] visits on its way to center_tol: the
    largest power of 2 no wider than center_tol, or than 4 machine
    epsilons of the range; a coarse solve floors it at _COARSE_GRID.
    From its start (clipped into [min, max]; the block mean without one)
    each cell steps towards the root with growing steps until f' changes
    sign, then takes Chandrupatla steps (inverse quadratic interpolation
    where it is safe, bisection otherwise) with t kept a grid step from
    the ends. Every point it evaluates is rounded to the grid, and it
    stops when its sign-change bracket is one grid cell wide. All cells
    move in lock step, one pass over the matrix per gradient evaluation.
    p = 2 takes the closed-form block mean clipped into [min, max],
    because rounding can put it an ulp outside; where the block's sum
    overflows (+-inf, or NaN from inf + -inf), the mean is the sum of
    each value over the block's size, which stays finite. Returns the
    bracket midpoints and widths, each of shape (blocks, m), and the
    number of passes; an integer array block_passes, one entry per
    block, receives each block's passes: the first one and those in
    which any of its cells was open.

    A cell's steps depend on its own cell alone, so a block solved next
    to others gets the bits and the pass count it gets solved alone;
    the engine stacks the blocks of several runs this way. One thing
    follows the memory layout instead: where a cell's minimum or maximum
    is a tie of -0.0 and 0.0, numpy's reductions keep whichever zero
    their order of visits favours, and that sign can reach a zero centre
    or width, though no distance, sum or comparison.

    A coarse solve inside the float32 window (_F32_MIN_P = 1.09375 <= p
    <= _F32_MAX_P = 64) keeps u, the deviations and their powers in
    float32, where its grid points are exact, and sums f' and the Newton
    slope in float64; at q = 4 the power is two squares. Every other
    pass keeps _abs_pow's float64 bits. Rounding then moves the root by
    at most s = 2^-23 (1 + 1/(p - 1)) of the range (derived at
    _F32_MIN_P), so a coarse answer lies within (G / 2 + s) (max - min)
    of the fine one (G its grid, plus float64 rounding): under two
    coarse cells, against half a cell in float64. Outside the window
    the coarse solve is float64, bit for bit as before.
    """
    if not 1.0 < p <= _MAX_P:
        raise InvalidConfigError(f"the centre solver needs 1 < p <= {_MAX_P:g}, got p={p}")
    sizes = np.diff(np.append(offsets, matrix.shape[0]))
    cols = np.ascontiguousarray(matrix.T)
    lo = np.minimum.reduceat(cols, offsets, axis=1)
    hi = np.maximum.reduceat(cols, offsets, axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise NonFiniteError(int(row), int(col))
    if p == 2.0:
        if block_passes is not None:
            block_passes[...] = 0
        with np.errstate(over="ignore", invalid="ignore"):  # such cells are summed again below
            mean = np.add.reduceat(cols, offsets, axis=1) / sizes
        if not np.isfinite(mean).all():  # the sum overflowed; a sum of value / size cannot
            scaled = np.add.reduceat(cols / np.repeat(sizes, sizes), offsets, axis=1)
            mean = np.where(np.isfinite(mean), mean, scaled)
        return np.minimum(np.maximum(mean, lo), hi).T, np.zeros(mean.T.shape), 0
    half = 0.5 * hi - 0.5 * lo  # never overflows, unlike hi - lo
    scale = np.where(half > 0.0, half, 1.0)
    u = 0.5 * cols
    u -= np.repeat(0.5 * lo, sizes, axis=1)
    u /= np.repeat(scale, sizes, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tol = np.fmax(0.5 * center_tol / half, 4.0 * np.finfo(float).eps)
        if coarse:
            tol = np.fmax(tol, _COARSE_GRID)
        # the bisection grid on [0, 1]: the largest power of 2 <= tol
        grid = np.where(tol < 1.0, np.ldexp(1.0, np.frexp(np.fmin(tol, 1.0))[1] - 1), 1.0)
        if start is None:
            z = np.add.reduceat(u, offsets, axis=1) / sizes
        else:  # fmin/fmax also send a NaN start into [0, 1]
            z = np.fmin(np.fmax((0.5 * start.T - 0.5 * lo) / scale, 0.0), 1.0)
    q = p - 1.0
    single = coarse and _in_f32_window(p)
    if single:
        u = u.astype(np.float32)  # the coarse grid points are exact in float32

    bits = np.uint32 if single else np.uint64
    sign_bit = np.array(-0.0, u.dtype).view(bits)

    def terms(z):
        """|d|^q and the f' terms sign(d) |d|^q for d = z - u; the latter
        overwrite d, whose sign bit ORed into |d|^q >= 0 gives the bits
        of np.copysign at a fraction of its cost."""
        d = np.repeat(z.astype(u.dtype, copy=False), sizes, axis=1)
        d -= u
        if single and q == 4.0:
            dq = np.square(d)
            np.square(dq, out=dq)
        else:
            dq = _abs_pow(d, q)
        signed = d.view(bits)
        signed &= sign_bit
        signed |= dq.view(bits)
        return dq, d

    # Every point evaluated lies on the grid, so each cell ends in one
    # grid cell, the one holding the root, whatever its start was.
    x1 = np.rint(z / grid) * grid
    dq, signed = terms(x1)
    f1 = np.add.reduceat(signed, offsets, axis=1, dtype=float)
    passes = 1
    opened = []  # each loop pass's open cells, for block_passes
    # (x1, f1) is the newest point, (x2, f2) the far end of the bracket
    # and (x3, f3) the point dropped last. Until a cell's bracket closes,
    # its far end is the block edge towards the root, whose sign is
    # known (f' < 0 at the min, > 0 at the max) but whose value is not:
    # f2 = -inf or +inf marks it, and the inverse quadratic step, fed a
    # NaN, never fires there.
    x2 = np.where(f1 < 0.0, 1.0, 0.0)
    f2 = np.where(f1 < 0.0, np.inf, -np.inf)
    x3, f3 = x2, f2
    superlinear = p >= _IQI_MIN_P
    searching = True  # some bracket is still open; none ever reopens
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # First step: Newton's, with f'' estimated from the mean |d|^q as
        # if every deviation were equal.
        slope = q * sizes * (np.add.reduceat(dq, offsets, axis=1, dtype=float) / sizes) ** ((q - 1.0) / q)
        step = _OVERSHOOT * np.abs(f1) / slope
        while True:
            width = np.abs(x2 - x1)
            active = width > grid
            if not active.any():
                break
            if block_passes is not None:
                opened.append(active)
            if searching:
                open_ = np.isinf(f2)
                searching = open_.any()
            interpolating = superlinear and passes < _IQI_PASSES
            t = np.where(open_, step / width, 0.5) if searching else 0.5
            if interpolating:
                xi = (x1 - x2) / (x3 - x2)
                phi = (f1 - f2) / (f3 - f2)
                iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
                t_iqi = f1 / (f3 - f2) * ((x3 - x1) / (x2 - x1) * f2 / (f3 - f1) - f3 / (f2 - f1))
                t = np.where(iqi, t_iqi, t)
            if searching or interpolating:
                # at least one grid step from either end (a bisection
                # midpoint, rounded, is always that far)
                clip = grid / width
                t = np.minimum(np.maximum(t, clip), 1.0 - clip)
            xt = np.where(active, np.rint((x1 + t * (x2 - x1)) / grid) * grid, x1)
            ft = np.add.reduceat(terms(xt)[1], offsets, axis=1, dtype=float)
            passes += 1
            same = (ft < 0.0) == (f1 < 0.0)
            if searching:
                # the next expansion step: at least _GROWTH times the last,
                # and _OVERSHOOT times the secant's distance to the root
                secant = np.abs(ft) * np.abs(xt - x1) / (np.abs(f1) - np.abs(ft))
                step = np.where(same, np.fmax(_GROWTH * step, _OVERSHOOT * np.fmax(secant, 0.0)), step)
            if superlinear:
                # a bracket that closes keeps the previous point as its third
                dropped_x = np.where(open_, x3, x2) if searching else x2
                dropped_f = np.where(open_, f3, f2) if searching else f2
                x3, f3 = np.where(same, x1, dropped_x), np.where(same, f1, dropped_f)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = xt, ft
    centre = 0.5 * (x1 + x2)
    centre = np.minimum(np.maximum(lo * (1.0 - centre) + hi * centre, lo), hi)
    if block_passes is not None:
        # a cell never reopens, so a block's passes are those of its cell
        # open longest, the passes of a call that holds the block alone
        block_passes[...] = 1
        if opened:
            block_passes += np.add.reduce(opened, axis=0, dtype=np.intp).max(axis=0)
    return centre.T, ((2.0 * width) * half).T, passes


def minkowski_center(samples, p: float, center_tol: float = DEFAULT_CENTER_TOL) -> CenterSolveResult:
    """Unique minimiser of f(z) = sum_i |s_i - z|^p for 1 < p <= 1023.

    p = 2 takes the closed-form mean; otherwise the solver of
    minkowski_center_columns, started from the sample mean. iterations
    counts its gradient evaluations (passes over the samples).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("samples must be nonempty")
    z, width, passes = _solve_blocks(samples.reshape(-1, 1), np.zeros(1, dtype=int), p, center_tol)
    z = float(z[0, 0])
    return CenterSolveResult(
        z=z,
        f_value=center_objective(samples, p, z),
        iterations=passes,
        bracket_width=float(width[0, 0]),
    )


def minkowski_center_columns(
    matrix: np.ndarray,
    p: float,
    center_tol: float = DEFAULT_CENTER_TOL,
    offsets=None,
    start=None,
    *,
    coarse: bool = False,
    _block_passes: np.ndarray | None = None,
) -> np.ndarray:
    """Column-wise Minkowski centres of an (n, m) matrix.

    Without offsets the rows form one sample and the result has shape
    (m,). With offsets (strictly increasing row indices starting at 0,
    as for np.add.reduceat) each run of rows from one offset to the next
    is its own sample and the result has shape (len(offsets), m); the
    clustering engine passes its points sorted by cluster this way.
    start, of the result's shape, warm-starts the solver (the engine
    passes the previous iteration's centres); it changes how many passes
    the solver makes, not its answer. coarse=True solves on the grid
    _COARSE_GRID of each range where that is coarser than center_tol.
    _block_passes, an integer array with one entry per block, receives
    each block's number of gradient passes: those a call holding that
    block alone would make.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] == 0:
        raise ValueError("matrix must have at least one row")
    blocks = np.zeros(1, dtype=int) if offsets is None else np.asarray(offsets, dtype=int)
    if blocks.size == 0 or blocks[0] != 0 or (np.diff(blocks) <= 0).any() or blocks[-1] >= matrix.shape[0]:
        raise ValueError("offsets must start at 0 and strictly increase below the row count")
    if start is not None:
        start = np.asarray(start, dtype=float)
        shape = (matrix.shape[1],) if offsets is None else (blocks.size, matrix.shape[1])
        if start.shape != shape:
            raise DimensionMismatchError(f"start has shape {start.shape}, expected {shape}")
        start = start.reshape(blocks.size, matrix.shape[1])
    z, _, _ = _solve_blocks(matrix, blocks, p, center_tol, start, coarse, _block_passes)
    return z[0] if offsets is None else z
