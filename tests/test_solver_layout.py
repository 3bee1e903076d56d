"""The feature-major centre solver against the row-major one it replaced
(tests/solver_oracle.py): the same centres, widths, pass counts and
per-block passes, bit for bit, from either input layout, but for the
sign of a zero.

numpy's minimum and maximum reductions break a tie between -0.0 and
0.0 by the order in which they meet the elements, and that order
depends on the memory layout and on numpy's 8,192-element chunks: a
block of 8,193 rows holding both zeros as its minimum can get -0.0 in
one layout and 0.0 in the other (as an F-ordered matrix could in the
row-major solver already). That sign reaches a zero centre or width and
nothing else: no distance, sum or comparison sees it."""
import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import solver_oracle
from mwkmeans import geometry
from mwkmeans.geometry import DEFAULT_CENTER_TOL, _solve_blocks

# the float32 window's ends and their neighbours, inside and out; 2 and
# the exponents of the reference protocol
_EXPONENTS = [
    float(v)
    for end in (geometry._F32_MIN_P, geometry._F32_MAX_P)
    for v in (np.nextafter(end, 0.0), end, np.nextafter(end, np.inf))
] + [1.0 + 1e-6, 1.05, 1.1, 1.5, 2.0, 3.0, 5.0, 130.0]


@st.composite
def problems(draw):
    """Blocks of 1 to 20 rows, now and then one above 8,192 (the
    buffer size of numpy's casting sums), drawn from a seeded generator:
    normal values at scales from 1e-3 to 1e3, rounded ones that tie, or
    one shared value; some columns constant, some data far from 0."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    if draw(st.integers(0, 7)) == 0:
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(8_193, 12_000))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "normal", "ties", "constant"]))
    x = rng.normal(size=(sum(sizes), m)) * 10.0 ** draw(st.integers(-3, 3))
    if kind == "ties":
        x = np.round(x)
    elif kind == "constant":
        x[:] = x[0, 0]
    if m > 1 and draw(st.integers(0, 3)) == 0:
        x[:, draw(st.integers(0, m - 1))] = 0.25  # a constant column
    if draw(st.integers(0, 3)) == 0:
        x += 1e8  # means the bound cannot prove inside [min, max]
    offsets = np.cumsum([0] + sizes[:-1])
    start = None
    if draw(st.booleans()):
        # inside, outside [min, max] or NaN
        start = np.add.reduceat(x, offsets, axis=0) / np.array(sizes)[:, None]
        start += rng.normal(size=start.shape) * draw(st.sampled_from([0.0, 1e-3, 10.0, 1e6]))
        start[rng.random(start.shape) < 0.2] = np.nan
    p = draw(st.sampled_from(_EXPONENTS + [2.0] * 3))
    return x, offsets, p, start, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(problems(), st.booleans())
def test_feature_major_solver_equals_row_major(problem, engine_layout):
    """Centres, widths, passes and block_passes equal the row-major
    solver's bit for bit (with -0.0 read as 0.0), from a plain (rows, m)
    matrix or from the .T view of a C-contiguous (m, rows) array, as the
    engine passes it."""
    x, offsets, p, start, coarse = problem
    matrix = np.ascontiguousarray(x.T).T if engine_layout else x
    passes, expected_passes = np.full(len(offsets), -1), np.full(len(offsets), -1)
    z, width, total = _solve_blocks(matrix, offsets, p, DEFAULT_CENTER_TOL, start, coarse, passes)
    ez, ewidth, etotal = solver_oracle._solve_blocks(x, offsets, p, DEFAULT_CENTER_TOL, start, coarse, expected_passes)
    if p == 2.0:
        sizes = np.diff(np.append(offsets, len(x)))
        mean = np.add.reduceat(x, offsets, axis=0) / sizes[:, None]
        event(f"p = 2, clip proved idle: {solver_oracle._mean_inside(x, offsets, sizes, mean)}")
    else:
        event(f"coarse: {coarse}, float32: {coarse and geometry._in_f32_window(p)}")
    event(f"largest block above 8192 rows: {np.diff(np.append(offsets, len(x))).max() > 8192}")
    assert z.shape == width.shape == ez.shape
    event(f"zero signs differ: {z.tobytes() != ez.tobytes() or width.tobytes() != ewidth.tobytes()}")
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    assert (z + 0.0).tobytes() == (ez + 0.0).tobytes()
    assert (width + 0.0).tobytes() == (ewidth + 0.0).tobytes()
    assert total == etotal
    assert passes.tolist() == expected_passes.tolist()
