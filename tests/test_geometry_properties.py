"""Property tests for the Minkowski-centre solver.

Columns of 1-50 samples, with duplicates and constant columns, at any
exponent the solver accepts from 1 + 1e-6 to 1000 and from any start,
inside or outside [min, max]: the warm-started result agrees with the
cold one within center_tol, and every result lies in [min, max].
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mwkmeans.geometry import DEFAULT_CENTER_TOL, minkowski_center_columns

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
