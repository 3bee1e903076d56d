import numpy as np
import pytest

from helpers import coarse_bound, grid_search_center
from mwkmeans import (
    center_gradient,
    center_objective,
    geometry,
    minkowski_center,
    weighted_minkowski_distance,
)
from mwkmeans.errors import DimensionMismatchError, InvalidConfigError, NonFiniteError
from mwkmeans.geometry import DEFAULT_CENTER_TOL, _abs_pow, _solve_blocks, minkowski_center_columns


class TestAbsPow:
    TINY = np.finfo(float).tiny

    def values(self):
        a = np.array([-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.0, 7.3, -1e300, 1e300])
        a = np.concatenate([a, [self.TINY / 4, -self.TINY / 3, 5e-324, -5e-324, 1e-200, -1e-160]])
        return np.concatenate([a, np.random.default_rng(0).normal(size=64) * 1e3]).reshape(2, -1)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0, 1023.0])
    def test_same_bits_as_abs_power(self, p):
        a = self.values()
        with np.errstate(over="ignore", under="ignore"):
            expected = (np.abs(a) ** p).tobytes()
            assert _abs_pow(a, p).tobytes() == expected
            out = np.empty_like(a)
            assert _abs_pow(a, p, out=out) is out
            assert out.tobytes() == expected
            in_place = a.copy()
            assert _abs_pow(in_place, p, out=in_place) is in_place
        assert in_place.tobytes() == expected
        assert np.isinf(in_place).any()  # (1e300)^p overflows at every p here
        assert (in_place == 0.0).any() and not np.signbit(in_place).any()


class TestWeightedMinkowskiDistance:
    def test_identity_point(self):
        assert weighted_minkowski_distance([1, 1], [1, 1], [0.3, 0.7], 2.0) == 0.0

    def test_hand_value_p2(self):
        d = weighted_minkowski_distance([0, 0], [1, 1], [0.5, 0.5], 2.0)
        assert d == pytest.approx(0.5)

    def test_hand_value_p3(self):
        assert weighted_minkowski_distance([0], [2], [1], 3.0) == pytest.approx(8.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            weighted_minkowski_distance([0, 1], [0], [1], 2.0)


class TestCenterGradient:
    def test_zero_at_symmetric_minimum(self):
        assert center_gradient([0, 2], 2.0, 1.0) == 0.0

    def test_hand_value(self):
        assert center_gradient([0, 2], 2.0, 0.0) == pytest.approx(-4.0)

    def test_single_sample(self):
        assert center_gradient([5], 1.5, 5.0) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_finite_differences(self, p):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-5, 5, 9)
        h = 1e-7
        for z in rng.uniform(-4, 4, 5):
            fd = (center_objective(samples, p, z + h) - center_objective(samples, p, z - h)) / (2 * h)
            assert center_gradient(samples, p, z) == pytest.approx(fd, rel=1e-4)


class TestMinkowskiCenter:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_symmetric_pair_gives_midpoint(self, p):
        r = minkowski_center([0.0, 2.0], p)
        assert r.z == pytest.approx(1.0, abs=1e-9)

    def test_p2_is_mean(self):
        r = minkowski_center([0.0, 0.0, 3.0], 2.0)
        assert r.z == 1.0

    def test_p3_matches_grid_oracle(self):
        r = minkowski_center([0.0, 0.0, 3.0], 3.0)
        assert r.z == pytest.approx(grid_search_center([0.0, 0.0, 3.0], 3.0), abs=1e-5)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 5.0])
    def test_oracle_equivalence_random(self, p):
        rng = np.random.default_rng(int(p * 10))
        for _ in range(5):
            samples = rng.uniform(-10, 10, int(rng.integers(2, 21)))
            r = minkowski_center(samples, p)
            assert r.z == pytest.approx(grid_search_center(samples, p), abs=1e-5)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 5.0])
    def test_strict_convexity_witness(self, p):
        rng = np.random.default_rng(int(p * 100))
        # at tol 1e-10 the objective gap at z +- 10*tol sits below float
        # resolution; 1e-6 keeps the witness representable
        tol = 1e-6
        samples = rng.uniform(-3, 3, 8)
        r = minkowski_center(samples, p, center_tol=tol)
        delta = 10 * tol
        assert center_objective(samples, p, r.z + delta) > r.f_value
        assert center_objective(samples, p, r.z - delta) > r.f_value

    def test_containment_and_bracket(self):
        rng = np.random.default_rng(9)
        for p in [1.2, 3.0, 7.0]:
            samples = rng.uniform(-10, 10, 15)
            r = minkowski_center(samples, p)
            assert samples.min() <= r.z <= samples.max()
            assert r.bracket_width <= 1e-10

    def test_gradient_small_at_solution(self):
        rng = np.random.default_rng(10)
        tol = 1e-10
        for p in [1.5, 2.5, 4.0]:
            samples = rng.uniform(-2, 2, 12)
            r = minkowski_center(samples, p, center_tol=tol)
            # gradient is increasing, so its value at z is bounded by the
            # spread across a 10-tol neighbourhood of z
            envelope = center_gradient(samples, p, r.z + 10 * tol) - center_gradient(
                samples, p, r.z - 10 * tol
            )
            assert abs(center_gradient(samples, p, r.z)) <= envelope + 1e-12

    def test_single_sample(self):
        r = minkowski_center([3.5], 1.7)
        assert r.z == 3.5
        assert r.f_value == 0.0


class TestCenterColumns:
    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0])
    def test_matches_scalar_solver(self, p):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(-5, 5, (14, 4))
        cols = minkowski_center_columns(matrix, p)
        for v in range(4):
            assert cols[v] == pytest.approx(minkowski_center(matrix[:, v], p).z, abs=1e-9)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_blocks_match_per_block_calls(self, p):
        rng = np.random.default_rng(12)
        sizes = [5, 1, 17, 2]
        matrix = rng.uniform(-5, 5, (sum(sizes), 3))
        offsets = np.cumsum(sizes) - sizes
        blocks = minkowski_center_columns(matrix, p, offsets=offsets)
        assert blocks.shape == (4, 3)
        for b, (start, size) in enumerate(zip(offsets, sizes)):
            expected = minkowski_center_columns(matrix[start : start + size], p)
            np.testing.assert_allclose(blocks[b], expected, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(blocks[1], matrix[5])

    @pytest.mark.parametrize("offsets", [[], [1, 3], [0, 3, 3], [0, 6]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError):
            minkowski_center_columns(np.zeros((6, 2)), 1.5, offsets=offsets)


class TestSolverRobustness:
    @pytest.mark.parametrize("p", [120.0, 400.0])
    def test_large_p_on_a_narrow_column(self, p):
        # |d|^(p-1) underflowed to 0 on the raw scale: 9.2e-5 and 3e-11
        r = minkowski_center([0.0, 1e-3, 2e-3], p)
        assert abs(r.z - 1e-3) <= 1e-10
        assert r.bracket_width <= 1e-10

    def test_huge_values_terminate(self):
        # inf - inf = NaN on the raw scale, and the loop spun forever
        r = minkowski_center([0.0, 1e200, 2e200], 3.0)
        assert r.z == pytest.approx(1e200, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 0.5, 1024.0, float("nan"), float("inf")])
    def test_exponent_outside_solver_range_rejected(self, p):
        with pytest.raises(InvalidConfigError):
            minkowski_center([0.0, 1.0, 3.0], p)

    def test_non_finite_sample_named(self):
        with pytest.raises(NonFiniteError) as exc:
            minkowski_center_columns(np.array([[0.0, 1.0], [np.nan, 2.0]]), 1.5)
        assert (exc.value.row, exc.value.col) == (1, 0)

    @pytest.mark.parametrize("p", [1.5, 5.0])
    def test_cold_solve_needs_few_passes(self, p):
        # one cluster of the reference protocol is about 333 points
        samples = np.random.default_rng(13).normal(size=333)
        r = minkowski_center(samples, p)
        assert r.iterations <= 12
        assert r.bracket_width <= DEFAULT_CENTER_TOL

    @pytest.mark.parametrize("p", [1.1, 1.5, 5.0])
    @pytest.mark.parametrize("start", [-50.0, -0.3, 0.2, 7.0])
    def test_result_does_not_depend_on_start(self, p, start):
        column = np.random.default_rng(14).uniform(-1.0, 1.0, (40, 1))
        warm = minkowski_center_columns(column, p, start=[start])
        assert warm == minkowski_center_columns(column, p)

    def test_start_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_center_columns(np.zeros((4, 2)), 1.5, start=np.zeros(3))


class TestFloat32Window:
    """Coarse solves run in float32 for geometry._F32_MIN_P <= p <=
    geometry._F32_MAX_P and in float64, bit for bit as before, outside.
    Hypothesis alone did not find the columns where a float32 coarse
    answer leaves half a coarse cell of the fine one, so these are fixed
    seeded columns, on both sides of each end of the window."""

    @staticmethod
    def columns():
        rng = np.random.default_rng(20)
        yield np.array([0.0, 1.0])
        for n in (2, 5, 50, 333):
            for _ in range(4):
                yield rng.uniform(-1e3, 1e3, n)
        yield rng.normal(size=1000)
        yield rng.choice([-1.0, 0.0, 0.25, 2.0], 50)

    @staticmethod
    def solve(column, p, coarse):
        blocks = np.zeros(1, dtype=int)
        return _solve_blocks(column[:, None], blocks, p, DEFAULT_CENTER_TOL, coarse=coarse)[0][0, 0]

    @pytest.mark.parametrize(
        "p",
        [1.001, 1.00390625, np.nextafter(geometry._F32_MIN_P, 1.0),
         np.nextafter(geometry._F32_MAX_P, 65.0), 127.0, 128.0, 200.0, 1023.0],
    )
    def test_outside_the_window_coarse_solves_are_float64(self, monkeypatch, p):
        assert not geometry._in_f32_window(p)
        coarse = [self.solve(c, p, True) for c in self.columns()]
        monkeypatch.setattr(geometry, "_F32_MAX_P", 0.0)  # float64 at every p
        assert coarse == [self.solve(c, p, True) for c in self.columns()]

    @pytest.mark.parametrize("p", [geometry._F32_MIN_P, 1.1, 1.5, 5.0, geometry._F32_MAX_P, 127.0])
    def test_coarse_answers_meet_the_derived_bound(self, p):
        for column in self.columns():
            fine = self.solve(column, p, False)
            assert abs(self.solve(column, p, True) - fine) <= coarse_bound(column, p, DEFAULT_CENTER_TOL)

    @pytest.mark.parametrize("p", [1.1, 1.5, 5.0])
    def test_only_coarse_passes_in_the_window_are_float32(self, monkeypatch, p):
        dtypes = []

        def spy(a, q, out=None):
            dtypes.append(a.dtype)
            return _abs_pow(a, q, out)

        monkeypatch.setattr(geometry, "_abs_pow", spy)
        column = np.random.default_rng(21).normal(size=100)
        self.solve(column, p, False)
        assert dtypes and set(dtypes) == {np.dtype(float)}
        dtypes.clear()
        self.solve(column, p, True)
        # at q = 4 two squares replace the power
        assert set(dtypes) == (set() if p == 5.0 else {np.dtype(np.float32)})
