import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weights_oracle
from mwkmeans import (
    global_suppression_bound,
    pairwise_suppression_bound,
    update_weights,
    weight_ratio,
)
from mwkmeans.errors import (
    InvalidCError,
    InvalidMError,
    MwkError,
    NonFiniteError,
    NonpositiveDispersionError,
)


class TestUpdateWeights:
    def test_equal_dispersions_are_uniform(self):
        np.testing.assert_allclose(update_weights(np.array([[1.0, 1.0]]), 2.0), [[0.5, 0.5]])

    def test_hand_value_p2(self):
        np.testing.assert_allclose(
            update_weights(np.array([[1.0, 4.0]]), 2.0), [[0.8, 0.2]], rtol=1e-12
        )

    def test_hand_value_p15(self):
        np.testing.assert_allclose(
            update_weights(np.array([[1.0, 4.0]]), 1.5), [[16 / 17, 1 / 17]], rtol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        d = np.exp(rng.normal(0, 3, (6, 7)))
        for p in [1.05, 1.5, 2.0, 10.0]:
            w = update_weights(d, p)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    def test_single_zero_dispersion_takes_all_weight(self):
        w = update_weights(np.array([[0.0, 1.0, 2.0]]), 2.0)
        np.testing.assert_allclose(w, [[1.0, 0.0, 0.0]])

    def test_multiple_zero_dispersions_split_evenly(self):
        w = update_weights(np.array([[0.0, 0.0, 2.0]]), 2.0)
        np.testing.assert_allclose(w, [[0.5, 0.5, 0.0]])

    def test_all_zero_row_is_uniform(self):
        w = update_weights(np.array([[0.0, 0.0, 0.0, 0.0]]), 2.0)
        np.testing.assert_allclose(w, [[0.25, 0.25, 0.25, 0.25]])

    def test_mixed_matrix_matches_per_row_expectations(self):
        d = np.array([
            [1.0, 4.0, 2.0],
            [3.0, 0.0, 5.0],
            [0.0, 7.0, 0.0],
            [0.0, 0.0, 0.0],
        ])
        w = update_weights(d, 2.0)
        expected = [
            [4 / 7, 1 / 7, 2 / 7],
            [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5],
            [1 / 3, 1 / 3, 1 / 3],
        ]
        np.testing.assert_allclose(w, expected, rtol=1e-12, atol=0)

    def test_negative_dispersion_rejected(self):
        with pytest.raises(NonpositiveDispersionError):
            update_weights(np.array([[-1.0, 1.0]]), 2.0)

    def test_nan_dispersion_is_named(self):
        with pytest.raises(NonFiniteError) as info:
            update_weights([[1.0, 2.0], [np.nan, 1.0]], 1.5)
        assert (info.value.row, info.value.col) == (1, 0)

    def test_concentration_near_p_one(self):
        # exponent 1/(p-1) = 100 turns a factor-2 dispersion gap into 2^100
        w = update_weights(np.array([[1.0, 2.0, 2.0]]), 1.01)
        assert w[0, 0] > 0.99

    def test_uniformity_increases_with_p(self):
        d = np.array([[1.0, 3.0, 9.0]])
        gaps = [np.max(np.abs(update_weights(d, p) - 1 / 3)) for p in [2.0, 5.0, 10.0, 100.0]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_tiny_dispersions_do_not_overflow(self):
        w = update_weights(np.array([[1e-300, 2e-300, 1.0]]), 1.01)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


exponents = st.sampled_from([1.0 + 1e-6, 1.1, 2.0, 5.0, 1023.0])
positive = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),  # log-uniform
)


@st.composite
def dispersion_matrices(draw):
    """1 x 1 to 6 x 9 matrices of values from 1e-300 to 1e300; some hold
    zero cells, and some of those an all-zero row."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 9)))
    zeros = draw(st.booleans())
    cells = st.one_of(st.just(0.0), positive) if zeros else positive
    d = draw(arrays(float, shape, elements=cells, fill=st.nothing()))
    if zeros and draw(st.booleans()):
        d[draw(st.integers(0, shape[0] - 1))] = 0.0
    return d


def outcome(update, d, p):
    """The weights' bytes, or the named error's type, message and cell."""
    try:
        w = update(d, p)
    except MwkError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return w.shape, w.dtype, w.tobytes()


@settings(max_examples=300, deadline=None)
@given(dispersion_matrices(), exponents)
def test_weights_equal_frozen_oracle_bit_for_bit(d, p):
    """update_weights gives the bytes of the weight step it replaced
    (tests/weights_oracle.py), with and without zero dispersions."""
    event(f"zero cells: {(d == 0.0).any()}")
    assert outcome(update_weights, d, p) == outcome(weights_oracle.update_weights, d, p)


@settings(max_examples=100, deadline=None)
@given(dispersion_matrices(), exponents, st.data())
def test_bad_cells_raise_as_frozen_oracle(d, p, data):
    """A NaN cell raises NonFiniteError naming the first NaN, a negative
    one NonpositiveDispersionError, as in the replaced weight step."""
    cell = st.tuples(st.integers(0, d.shape[0] - 1), st.integers(0, d.shape[1] - 1))
    cells = data.draw(st.lists(cell, min_size=1, max_size=3))
    for row, col in cells:
        d[row, col] = data.draw(st.sampled_from([np.nan, -1e-300, -1.0, -np.inf]))
    got = outcome(update_weights, d, p)
    assert got[0] in (NonFiniteError, NonpositiveDispersionError)
    assert got == outcome(weights_oracle.update_weights, d, p)


class TestWeightLaws:
    def test_ratio_law_on_random_matrices(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = np.exp(rng.normal(0, 2, (3, 5)))
            p = float(rng.uniform(1.05, 6))
            w = update_weights(d, p)
            for l in range(3):
                for u in range(5):
                    for v in range(5):
                        expected = weight_ratio(d[l, u], d[l, v], p)
                        assert w[l, u] / w[l, v] == pytest.approx(expected, rel=1e-9)

    def test_order_reversal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = np.exp(rng.normal(0, 2, (2, 6)))
            p = float(rng.uniform(1.05, 6))
            w = update_weights(d, p)
            for l in range(2):
                for u in range(6):
                    for v in range(6):
                        if d[l, v] < d[l, u]:
                            assert w[l, v] > w[l, u]

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = np.exp(rng.normal(0, 2, (4, 5)))
            c = float(np.exp(rng.normal(0, 4)))
            p = float(rng.uniform(1.05, 6))
            assert np.max(np.abs(update_weights(d, p) - update_weights(c * d, p))) <= 1e-12

    def test_realised_weights_respect_suppression_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = np.exp(rng.normal(0, 2, (3, 6)))
            p = float(rng.uniform(1.05, 6))
            w = update_weights(d, p)
            for l in range(3):
                u = int(np.argmax(d[l]))
                for v in range(6):
                    if v == u:
                        continue
                    C = d[l, u] / d[l, v]
                    if C > 1:
                        assert w[l, u] <= pairwise_suppression_bound(C, p) * w[l, v] * (1 + 1e-9)
                C_all = d[l, u] / np.delete(d[l], u).max()
                if C_all > 1:
                    assert w[l, u] <= global_suppression_bound(C_all, 6, p) * (1 + 1e-9)


class TestWeightRatio:
    def test_equal_dispersions(self):
        assert weight_ratio(3.0, 3.0, 2.0) == 1.0

    def test_hand_value_p2(self):
        assert weight_ratio(4.0, 1.0, 2.0) == pytest.approx(0.25)

    def test_hand_value_p5(self):
        assert weight_ratio(4.0, 1.0, 5.0) == pytest.approx(0.25**0.25)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveDispersionError):
            weight_ratio(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("d_u, d_v", [(1.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)])
    def test_rejects_nan(self, d_u, d_v):
        # every comparison with NaN is false, which once let it through
        with pytest.raises(NonpositiveDispersionError):
            weight_ratio(d_u, d_v, 2.0)


class TestSuppressionBounds:
    def test_pairwise_hand_values(self):
        assert pairwise_suppression_bound(4.0, 2.0) == pytest.approx(0.25)
        assert pairwise_suppression_bound(4.0, 5.0) == pytest.approx(4.0**-0.25)

    def test_pairwise_limit_c_to_one(self):
        assert pairwise_suppression_bound(1.0 + 1e-12, 3.0) == pytest.approx(1.0, abs=1e-9)

    def test_pairwise_rejects_c_below_one(self):
        with pytest.raises(InvalidCError):
            pairwise_suppression_bound(1.0, 2.0)

    def test_global_hand_values(self):
        assert global_suppression_bound(4.0, 2, 2.0) == pytest.approx(0.2)
        assert global_suppression_bound(4.0, 8, 2.0) == pytest.approx(1 / 29)

    def test_global_limit_c_to_one(self):
        assert global_suppression_bound(1.0 + 1e-12, 2, 2.0) == pytest.approx(0.5, abs=1e-9)

    def test_nan_c_rejected(self):
        with pytest.raises(InvalidCError):
            pairwise_suppression_bound(math.nan, 2.0)
        with pytest.raises(InvalidCError):
            global_suppression_bound(math.nan, 3, 2.0)

    def test_global_rejects_bad_m(self):
        with pytest.raises(InvalidMError):
            global_suppression_bound(2.0, 1, 2.0)
