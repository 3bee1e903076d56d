import numpy as np
import pytest

from mwkmeans import (
    ClusteringState,
    Dataset,
    DispersionMatrix,
    MwkConfig,
    compute_dispersions,
    run,
    validate_dataset,
)
from mwkmeans.engine import update_centroids
from mwkmeans.errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    InvalidConfigError,
    NonFiniteError,
    NonNumericError,
    RaggedRowsError,
)


class TestValidateDataset:
    def test_well_formed(self):
        d = validate_dataset([[0, 1], [1, 0]])
        assert d.n == 2 and d.m == 2

    def test_nan_reports_first_cell(self):
        with pytest.raises(NonFiniteError) as exc:
            validate_dataset([[0.0, float("nan")], [1.0, 2.0]])
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteError):
            validate_dataset([[float("inf")]])

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            validate_dataset([])

    def test_ragged_rows(self):
        with pytest.raises(RaggedRowsError):
            validate_dataset([[1, 2], [3]])

    def test_labels_length_checked(self):
        with pytest.raises(RaggedRowsError):
            validate_dataset([[1, 2]], labels=[0, 1])

    def test_directly_built_dataset_rejects_nan(self):
        with pytest.raises(NonFiniteError) as exc:
            Dataset(values=[[0.0, float("nan")]])
        assert (exc.value.row, exc.value.col) == (0, 1)

    def test_directly_built_dataset_must_be_a_matrix(self):
        with pytest.raises(RaggedRowsError):
            Dataset(values=[1.0, 2.0])

    def test_run_never_sees_a_non_finite_dataset(self):
        x = np.random.default_rng(0).normal(size=(6, 2))
        x[3, 0] = np.inf
        with pytest.raises(NonFiniteError) as exc:
            run(Dataset(values=x), MwkConfig(k=2, p=1.5))
        assert (exc.value.row, exc.value.col) == (3, 0)

    def test_values_are_read_only(self):
        d = validate_dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.values[0, 0] = 5.0

    def test_direct_construction_leaves_caller_arrays_writable(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([0, 1])
        d = Dataset(values=x, labels=y)
        assert x.flags.writeable and y.flags.writeable
        x[0, 0] = 9.0
        y[0] = 7
        assert d.values[0, 0] == 1.0 and d.labels[0] == 0

    def test_directly_built_dataset_rejects_ragged_rows(self):
        with pytest.raises(RaggedRowsError):
            Dataset(values=[[1.0, 2.0], [3.0]])

    @pytest.mark.parametrize(
        "values, cell", [([["a"]], (0, 0)), ([[1.0, 2.0], [3.0, "x"]], (1, 1)), ([[1.0, {}]], (0, 1))]
    )
    def test_non_numeric_cell_named(self, values, cell):
        with pytest.raises(NonNumericError) as exc:
            Dataset(values=values)
        assert (exc.value.row, exc.value.col) == cell


class TestMwkConfig:
    def test_rejects_p_at_one(self):
        with pytest.raises(InvalidConfigError):
            MwkConfig(k=2, p=1.0)

    def test_rejects_p_just_above_one(self):
        with pytest.raises(InvalidConfigError):
            MwkConfig(k=2, p=1.0 + 1e-10)

    @pytest.mark.parametrize("p", [float("inf"), 1024.0, 2000.0])
    def test_rejects_p_above_solver_ceiling(self, p):
        with pytest.raises(InvalidConfigError, match="at most 1023"):
            MwkConfig(k=2, p=p)

    def test_accepts_solver_ceiling(self):
        assert MwkConfig(k=2, p=1023.0).p == 1023.0

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidConfigError):
            MwkConfig(k=0, p=2.0)

    def test_accepts_small_p(self):
        MwkConfig(k=2, p=1.01)

    def test_rejects_negative_tol(self):
        with pytest.raises(InvalidConfigError):
            MwkConfig(k=2, p=2.0, tol_objective=-1.0)

    @pytest.mark.parametrize("field", ["tol_objective", "center_tol"])
    def test_rejects_nan_tolerance(self, field):
        with pytest.raises(InvalidConfigError, match=field):
            MwkConfig(k=2, p=1.5, **{field: float("nan")})

    @pytest.mark.parametrize("field", ["tol_objective", "center_tol"])
    def test_accepts_infinite_tolerance(self, field):
        assert getattr(MwkConfig(k=2, p=1.5, **{field: float("inf")}), field) == float("inf")


class TestDispersions:
    def test_matches_definition(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        assignments = rng.integers(0, 2, size=12)
        centroids = rng.normal(size=(2, 3))
        p = 2.5
        d = compute_dispersions(x, assignments, centroids, p).d
        for l in range(2):
            for v in range(3):
                expected = sum(abs(xi[v] - centroids[l, v]) ** p for xi in x[assignments == l])
                assert d[l, v] == pytest.approx(expected, rel=1e-12)

    def test_read_only_inputs_untouched(self):
        rng = np.random.default_rng(3)
        dataset = validate_dataset(rng.normal(size=(12, 3)))
        centroids = rng.normal(size=(2, 3))
        centroids.setflags(write=False)
        before = (dataset.values.copy(), centroids.copy())
        d = compute_dispersions(dataset.values, np.arange(12) % 2, centroids, 1.5).d
        assert np.isfinite(d).all()
        np.testing.assert_array_equal(dataset.values, before[0])
        np.testing.assert_array_equal(centroids, before[1])

    def test_round_trip_from_run(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        report = run(validate_dataset(x), MwkConfig(k=3, p=1.5, seed=2))
        state = report.final_state
        recomputed = compute_dispersions(x, state.assignments, state.centroids, 1.5).d
        np.testing.assert_allclose(recomputed, report.dispersions.d, rtol=1e-12)


    def test_empty_cluster_row_is_zero(self):
        x = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        centroids = np.array([[1.0, 3.0], [9.0, 9.0], [4.0, 4.0]])
        d = compute_dispersions(x, np.array([0, 0, 2]), centroids, 2.0).d
        np.testing.assert_array_equal(d, [[2.0, 8.0], [0.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_assignment_outside_range_is_named(self, bad):
        x = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        centroids = np.array([[1.0, 3.0], [4.0, 4.0]])
        with pytest.raises(DimensionMismatchError, match=rf"point 2 .* {bad}\b"):
            compute_dispersions(x, np.array([0, 1, bad]), centroids, 2.0)

    def test_one_assignment_per_point_required(self):
        x = np.array([[0.0], [10.0], [20.0]])
        with pytest.raises(DimensionMismatchError, match="expected 3 assignments"):
            compute_dispersions(x, np.array([0, 1]), np.array([[0.0], [10.0]]), 2.0)

    def test_matrix_is_adopted_read_only(self):
        """The fresh product is held as it is, read-only, not copied."""
        x = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        d = compute_dispersions(x, np.array([0, 0, 1]), np.array([[1.0, 3.0], [4.0, 4.0]]), 2.0).d
        assert not d.flags.writeable and d.flags.c_contiguous and d.flags.owndata
        with pytest.raises(ValueError):
            d[0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
    def test_range_checked_in_any_integer_type(self, dtype):
        x = np.array([[0.0], [1.0], [2.0]])
        centroids = np.array([[0.0], [2.0]])
        d = compute_dispersions(x, np.array([0, 1, 1], dtype=dtype), centroids, 2.0).d
        np.testing.assert_array_equal(d, [[0.0], [1.0]])
        with pytest.raises(DimensionMismatchError, match=r"point 1 .* 2\b"):
            compute_dispersions(x, np.array([0, 2, 2], dtype=dtype), centroids, 2.0)

    @pytest.mark.parametrize(
        "assignments",
        [[0.0, 1.0, 0.0, 1.0], [False, True, False, True], ["0", "1", "0", "1"]],
        ids=["float", "bool", "str"],
    )
    @pytest.mark.parametrize("call", ["compute_dispersions", "update_centroids"])
    def test_non_integer_assignments_are_named(self, assignments, call):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        centroids = np.array([[0.0], [2.0]])
        a = np.array(assignments)
        with pytest.raises(DimensionMismatchError, match=f"dtype {a.dtype}"):
            if call == "compute_dispersions":
                compute_dispersions(x, a, centroids, 2.0)
            else:
                update_centroids(x, a, 2, 2.0, 1e-10)


class TestStateInvariants:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_weight_simplex(self, p):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        report = run(validate_dataset(x), MwkConfig(k=4, p=p, seed=4))
        w = report.final_state.weights
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        assert (w > 0).all() if (report.dispersions.d > 0).all() else True
        assert (w <= 1.0).all()

    def test_no_empty_clusters_in_final_state(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 2))
        report = run(validate_dataset(x), MwkConfig(k=5, p=2.0, seed=6))
        counts = np.bincount(report.final_state.assignments, minlength=5)
        assert (counts > 0).all()

    def test_state_is_frozen(self):
        state = ClusteringState(
            assignments=[0, 1],
            centroids=[[0.0], [1.0]],
            weights=[[1.0], [1.0]],
            objective=0.0,
        )
        with pytest.raises(ValueError):
            state.weights[0, 0] = 0.5

    def test_state_leaves_caller_arrays_writable(self):
        assignments, centroids, weights = np.array([0, 1]), np.zeros((2, 1)), np.ones((2, 1))
        d = np.ones((2, 1))
        ClusteringState(assignments=assignments, centroids=centroids, weights=weights, objective=0.0)
        DispersionMatrix(d=d)
        assert all(a.flags.writeable for a in (assignments, centroids, weights, d))
