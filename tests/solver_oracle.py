"""The centre solver as it was while it kept each cell's samples
strided down an (rows, m) matrix and reduced over axis 0, kept verbatim
with the constants and helpers it uses. tests/test_solver_layout.py
checks the feature-major solver against it bit for bit."""
from __future__ import annotations

import numpy as np

from mwkmeans.errors import InvalidConfigError, NonFiniteError

DEFAULT_CENTER_TOL = 1e-10

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal

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


def _abs_pow(a, p: float, out=None):
    """|a|^p into out (which may be a), with the bits of np.abs(a) ** p:
    a square at p = 2, else abs then numpy's same in-place scalar power."""
    if p == 2.0:
        return np.square(a, out=out)
    out = np.abs(a, out=out)
    out **= p
    return out


def _mean_inside(matrix, offsets, sizes, mean) -> bool:
    """Whether every computed block mean provably lies inside its
    cell's [min, max], so that the clip would change nothing; False
    where that is not proved, and for any non-finite mean.

    With n samples, range R = max - min and largest |x| M in a cell, the
    exact mean lies at least R / n inside [min, max]: the largest sample
    alone lifts it R / n above the minimum, the smallest holds it R / n
    below the maximum. The computed mean lies within about (n + 1) u M
    of the exact one (u = 2^-53; Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, 4.2: a sum of n terms in any
    order errs by at most gamma_(n-1) n M, and the division rounds once
    more), plus eta / 2 below the normal range (eta the smallest
    subnormal; sums add no underflow error). So it is strictly inside
    when R / n exceeds that, and R >= |first - last| for the block's
    first and last members. The test asks for |first / 2 - last / 2| >
    2 n (n + 1) u M + (n + 4) eta. Halving first keeps the difference
    finite; after the roundings of the halves (eta / 2 each below the
    normal range), of the difference and of the bar, it still gives
    R / n > 4 (n + 1) u M (1 - 5 u) + 2 eta, twice the error or more.
    M is taken over the whole matrix, which only raises the bar.
    A 1-row block, or one whose first and last members are equal, fails
    the test, so the call takes the computed [min, max] clip.
    """
    if not np.isfinite(mean).all():
        return False
    n = sizes[:, None].astype(float)
    first = np.take(matrix, offsets, axis=0)
    last = np.take(matrix, offsets + sizes - 1, axis=0)
    big = max(matrix.max(), -matrix.min())  # two contiguous passes, cheaper than per column
    with np.errstate(over="ignore", under="ignore"):  # an infinite bar fails the test
        bar = 2.0 * n * (n + 1.0) * _UNIT_ROUNDOFF * big + (n + 4.0) * _SMALLEST_SUBNORMAL
        return bool((np.abs(0.5 * first - 0.5 * last) > bar).all())


def _solve_blocks(matrix, offsets, p: float, center_tol: float, start=None, coarse=False, block_passes=None):
    """Minkowski centres of every (block, column) cell of a matrix whose
    rows fall into contiguous blocks starting at the given offsets.

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
    p = 2 takes the closed-form mean, clipped into [min, max] unless
    _mean_inside proves the clip idle. Returns the bracket midpoints and
    widths, each of shape (blocks, m), and the number of passes; an
    integer array block_passes, one entry per block, receives each
    block's passes: the first one and those in which any of its cells
    was open.

    A cell's steps depend on its own cell alone, so a block solved next
    to others gets the bits and the pass count it gets solved alone;
    the engine stacks the blocks of several runs this way.

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
    n = sizes[:, None]
    if p == 2.0:
        with np.errstate(over="ignore", invalid="ignore"):  # caught below
            mean = np.add.reduceat(matrix, offsets, axis=0) / n
        if block_passes is not None:
            block_passes[...] = 0
        if _mean_inside(matrix, offsets, sizes, mean):
            return mean, np.zeros(mean.shape), 0
    lo = np.minimum.reduceat(matrix, offsets, axis=0)
    hi = np.maximum.reduceat(matrix, offsets, axis=0)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise NonFiniteError(int(row), int(col))
    if p == 2.0:  # a rounded mean can leave [min, max] by an ulp
        return np.minimum(np.maximum(mean, lo), hi), np.zeros(mean.shape), 0
    half = 0.5 * hi - 0.5 * lo  # never overflows, unlike hi - lo
    scale = np.where(half > 0.0, half, 1.0)
    u = (0.5 * matrix - np.repeat(0.5 * lo, sizes, axis=0)) / np.repeat(scale, sizes, axis=0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tol = np.fmax(0.5 * center_tol / half, 4.0 * np.finfo(float).eps)
        if coarse:
            tol = np.fmax(tol, _COARSE_GRID)
        # the bisection grid on [0, 1]: the largest power of 2 <= tol
        grid = np.where(tol < 1.0, np.ldexp(1.0, np.frexp(np.fmin(tol, 1.0))[1] - 1), 1.0)
        if start is None:
            z = np.add.reduceat(u, offsets, axis=0) / n
        else:  # fmin/fmax also send a NaN start into [0, 1]
            z = np.fmin(np.fmax((0.5 * start - 0.5 * lo) / scale, 0.0), 1.0)
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
        d = np.repeat(z.astype(u.dtype, copy=False), sizes, axis=0)
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
    f1 = np.add.reduceat(signed, offsets, axis=0, dtype=float)
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
        slope = q * n * (np.add.reduceat(dq, offsets, axis=0, dtype=float) / n) ** ((q - 1.0) / q)
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
            ft = np.add.reduceat(terms(xt)[1], offsets, axis=0, dtype=float)
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
            block_passes += np.add.reduce(opened, axis=0, dtype=np.intp).max(axis=1)
    return centre, (2.0 * width) * half, passes
