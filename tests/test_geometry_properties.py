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

At p = 2 each block's centre is its mean clipped into [min, max], bit
for bit, where the clip changes nothing and where the rounded mean
leaves [min, max] by an ulp; where the block's sum overflows it is the
sum of each value over the block's size. Neither warns. The sign of a
zero centre is read as 0.0 on both sides: the solver's min and max
reductions and the block-by-block ones here break a -0.0/0.0 tie in
different orders (tests/test_solver_layout.py).
"""
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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


def clipped_means(matrix, offsets):
    """Each block's mean clipped into its [min, max], block by block in
    plain numpy. The sum goes through np.add.reduceat, as the solver's
    does: block.sum(axis=0) adds in another order and rounds differently."""
    ends = list(offsets[1:]) + [len(matrix)]
    means = []
    for start, stop in zip(offsets, ends):
        block = matrix[start:stop]
        mean = np.add.reduceat(block, [0], axis=0)[0] / len(block)
        means.append(np.minimum(np.maximum(mean, block.min(axis=0)), block.max(axis=0)))
    return np.array(means)


@st.composite
def mean_blocks(draw):
    """Blocks of 1-30 rows (1-row blocks included) of spread values, of
    any floats, of a few values or of values one ulp apart, some with a
    constant or duplicated column or equal first and last rows, at
    scales 1e-150 to 1e150 and offsets up to 1e8. About a third are
    spread values, whose means lie strictly inside [min, max]."""
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(2, 30), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 3:
        sizes[draw(st.integers(0, len(sizes) - 1))] = 1
    offsets = np.cumsum([0] + sizes[:-1])
    shape = (sum(sizes), m)
    kind = draw(st.sampled_from(["uniform", "floats", "pool", "ulps"]))
    if kind == "uniform":  # spread values: the clip changes none of these means
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, shape)
    else:
        elements = st.floats(-1.0, 1.0)
        if kind != "floats":
            pool = draw(st.lists(elements, min_size=1, max_size=4))
            if kind == "ulps":  # one ulp apart, so first and last barely differ
                pool = [pool[0], np.nextafter(pool[0], 2.0), np.nextafter(pool[0], -2.0)]
            elements = st.sampled_from(pool)
        x = draw(arrays(float, shape, elements=elements, fill=st.nothing()))
    if draw(st.integers(0, 3)) == 3:
        x[:, draw(st.integers(0, m - 1))] = x[0, 0]  # a constant column
    if m > 1 and draw(st.integers(0, 3)) == 3:
        x[:, 1] = x[:, 0]  # a duplicated column
    if draw(st.integers(0, 3)) == 3:
        b = draw(st.integers(0, len(sizes) - 1))
        x[offsets[b] + sizes[b] - 1] = x[offsets[b]]  # first and last members equal
    scale = draw(st.sampled_from([1e-150, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e150]))
    offset = draw(st.sampled_from([0.0, 0.1, 1.0, 1e3, 1e6, 1e8]))
    return (x + offset) * scale, offsets


@settings(max_examples=300, deadline=None)
@given(mean_blocks())
# three copies of 0.1: the rounded mean, 0.10000000000000002, needs the clip
@example((np.full((3, 1), 0.1), np.array([0])))
@example((np.array([[0.1], [0.1], [0.1], [2.0], [3.0]]), np.array([0, 3])))
# first and last differ by an ulp, and the mean, 0.10000000000000003, is above both
@example((np.append(np.full(29, 0.1), np.nextafter(0.1, 1.0))[:, None], np.array([0])))
# the sum overflows to inf; the centre is the mean, 1.5e308, which is the max
@example((np.full((2, 1), 1.5e308), np.array([0])))
# eight 0.0 and one -0.0 in two columns: the two sides' ties give opposite signs
@example((np.array([[0.0, 0.0]] * 8 + [[-0.0, -0.0]]), np.array([0])))
def test_p2_centres_are_clipped_means_bit_for_bit(problem):
    matrix, offsets = problem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = minkowski_center_columns(matrix, 2.0, offsets=offsets)
    with np.errstate(over="ignore"):
        expected = clipped_means(matrix, offsets)
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    assert (z + 0.0).tobytes() == (expected + 0.0).tobytes()


def test_p2_mean_whose_sum_overflows():
    """Where a block's sum overflows, to +-inf or to NaN (where numpy's
    reduction order meets inf + -inf, as on the third block here), the
    centre is the sum of each value over the block's size, not the max,
    min or NaN, with no numpy warning; the other blocks keep their
    means. Each value / size here is exact, and so is each mean."""
    v = 9.0 * 2.0**1020
    blocks = [
        ([1.5e308, 1.5e308, 0.0], 1e308),
        ([-1.5e308, -1.5e308, 0.0], -1e308),
        ([v] * 7 + [-v] * 2, 5.0 * 2.0**1020),
        ([1.0, 2.0], 1.5),
    ]
    matrix = np.concatenate([values for values, _ in blocks])[:, None]
    offsets = np.cumsum([0] + [len(values) for values, _ in blocks[:-1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = minkowski_center_columns(matrix, 2.0, offsets=offsets)
    np.testing.assert_array_equal(z[:, 0], [mean for _, mean in blocks])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.tuples(values, values), min_size=1, max_size=20), min_size=1, max_size=5),
    st.one_of(solver_exponents, st.just(2.0)),
    st.booleans(),
    st.data(),
)
def test_stacked_blocks_solve_as_alone(blocks, p, coarse, data):
    """Blocks solved in one call get the centres, widths and pass counts
    that each gets in a call of its own, whatever the others need: the
    engine stacks the clusters of several runs this way."""
    starts = [np.array(data.draw(st.lists(values, min_size=2, max_size=2)))[None] for _ in blocks]
    alone = [
        _solve_blocks(np.array(rows), np.zeros(1, dtype=int), p, DEFAULT_CENTER_TOL, start, coarse)
        for rows, start in zip(blocks, starts)
    ]
    offsets = np.cumsum([0] + [len(rows) for rows in blocks[:-1]])
    passes = np.full(len(blocks), -1)
    z, width, total = _solve_blocks(
        np.concatenate([np.array(rows) for rows in blocks]), offsets, p, DEFAULT_CENTER_TOL,
        np.concatenate(starts), coarse, passes,
    )
    assert z.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
    assert width.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()
    assert passes.tolist() == [a[2] for a in alone]
    assert total == max(passes)
