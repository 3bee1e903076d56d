"""Property tests for the Minkowski-centre solver.

Columns of 1-50 samples, with duplicates and constant columns, at any
exponent the solver accepts from 1 + 1e-6 to 1000 and from any start,
inside or outside [min, max]: the warm-started result agrees with the
cold one within center_tol, and every result lies in [min, max]. The
coarse grid nests in the fine one: a fine solve started from the coarse
answer returns the cold fine answer, for 1 < p <= 1023 on narrow columns
and on columns up to 1e300. The coarse answer lies within half a coarse
cell of it outside the float32 window, and within the derived bound
helpers.coarse_bound (under two cells) inside it, where an answer two
cells off fails that bound.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import coarse_bound, coarse_cell
from mwkmeans import geometry
from mwkmeans.geometry import DEFAULT_CENTER_TOL, _solve_blocks, minkowski_center_columns

values = st.floats(-1e3, 1e3)
columns = st.one_of(
    st.lists(values, min_size=1, max_size=50),
    # few distinct values, so duplicates are common
    st.lists(st.sampled_from([-1.0, 0.0, 0.25, 2.0]), min_size=1, max_size=50),
    st.builds(lambda v, n: [v] * n, values, st.integers(1, 50)),
)
exponents = st.one_of(st.floats(1.0 + 1e-6, 1000.0), st.sampled_from([1.0 + 1e-6, 1.1, 1.5, 2.0, 5.0, 1000.0]))
starts = st.floats(allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(columns, exponents, starts)
def test_warm_and_cold_agree_within_tolerance(samples, p, start):
    column = np.array(samples)[:, None]
    cold = minkowski_center_columns(column, p)[0]
    warm = minkowski_center_columns(column, p, start=[start])[0]
    assert abs(warm - cold) <= DEFAULT_CENTER_TOL
    for z in (cold, warm):
        assert min(samples) <= z <= max(samples)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(values, values), min_size=2, max_size=50), exponents, st.data())
def test_block_columns_stay_in_range(rows, p, data):
    matrix = np.array(rows)
    cut = data.draw(st.integers(1, len(rows) - 1))
    start = np.array(data.draw(st.lists(starts, min_size=4, max_size=4))).reshape(2, 2)
    offsets = [0, cut]
    z = minkowski_center_columns(matrix, p, offsets=offsets, start=start)
    for b, (lo, hi) in enumerate([(0, cut), (cut, len(rows))]):
        assert (matrix[lo:hi].min(axis=0) <= z[b]).all() and (z[b] <= matrix[lo:hi].max(axis=0)).all()


# narrow: a base plus offsets below 1e-6 of it; huge: magnitudes up to 1e300
narrow_columns = st.builds(
    lambda base, scale, fractions: [base + scale * f for f in fractions],
    st.floats(-1e3, 1e3),
    st.sampled_from([1e-15, 1e-12, 1e-9, 1e-6]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
)
huge_columns = st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50)
solver_exponents = st.one_of(
    st.floats(1.0 + 1e-6, 1023.0).filter(lambda p: p != 2.0),
    st.sampled_from([1.0 + 1e-6, 1.1, 1.5, 5.0, 1023.0]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(columns, narrow_columns, huge_columns), solver_exponents)
def test_fine_solve_from_the_coarse_answer_is_the_cold_fine_answer(samples, p):
    column = np.array(samples)[:, None]
    blocks = np.zeros(1, dtype=int)
    fine, _, _ = _solve_blocks(column, blocks, p, DEFAULT_CENTER_TOL)
    coarse, _, _ = _solve_blocks(column, blocks, p, DEFAULT_CENTER_TOL, coarse=True)
    polished, _, _ = _solve_blocks(column, blocks, p, DEFAULT_CENTER_TOL, start=coarse)
    assert polished.tobytes() == fine.tobytes()
    lo, hi = column.min(), column.max()
    half = 0.5 * hi - 0.5 * lo
    if not geometry._in_f32_window(p):
        # half a coarse cell of [lo, hi], plus the rounding of mapping back
        assert abs(coarse[0, 0] - fine[0, 0]) <= geometry._COARSE_GRID * half + 4 * np.spacing(max(abs(lo), abs(hi)))
        return
    bound = coarse_bound(column, p, DEFAULT_CENTER_TOL)
    assert abs(coarse[0, 0] - fine[0, 0]) <= bound
    # the bound stays under two coarse cells: an answer two cells
    # further from the fine one fails it wherever a cell is resolvable
    cells = 2 * coarse_cell(column, DEFAULT_CENTER_TOL)
    if cells > 16 * np.spacing(max(abs(lo), abs(hi))):
        away = np.copysign(cells, coarse[0, 0] - fine[0, 0])
        assert abs(coarse[0, 0] + away - fine[0, 0]) > bound
