import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from helpers import best_label_agreement, brute_force_objective, grid_search_center, two_blob_dataset
from mwkmeans import (
    MwkConfig,
    SyntheticSpec,
    assign_points,
    compute_dispersions,
    generate,
    objective_via_dispersions,
    range_normalise,
    run,
    run_classic_kmeans,
    run_restarts,
    update_centroids,
    update_weights,
    validate_dataset,
)
from mwkmeans import engine, geometry
from mwkmeans.engine import EngineEvent
from mwkmeans.errors import (
    DimensionMismatchError,
    DispersionOverflowError,
    EmptyClusterError,
    InvalidConfigError,
    MwkError,
)


class TestAssignPoints:
    def test_exact_tie_goes_to_lowest_index(self):
        x = np.array([[1.0]])
        centroids = np.array([[0.0], [2.0]])
        weights = np.full((2, 1), 1.0)
        assert assign_points(x, centroids, weights, 2.0)[0] == 0

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_exact_tie_goes_to_lowest_index_any_p(self, p):
        x = np.array([[1.0]])
        centroids = np.array([[0.0], [2.0]])
        weights = np.full((2, 1), 1.0)
        assert assign_points(x, centroids, weights, p)[0] == 0

    @pytest.mark.parametrize("p", [1.1, 2.0, 5.0])
    def test_read_only_inputs_untouched(self, p):
        rng = np.random.default_rng(4)
        dataset = validate_dataset(rng.normal(size=(20, 3)))
        centroids = rng.normal(size=(3, 3))
        weights = np.full((3, 3), 1.0 / 3)
        for a in (centroids, weights):
            a.setflags(write=False)
        before = (dataset.values.copy(), centroids.copy(), weights.copy())
        assignments = assign_points(dataset, centroids, weights, p)
        np.testing.assert_array_equal(assignments, assign_points(before[0], before[1], before[2], p))
        np.testing.assert_array_equal(dataset.values, before[0])
        np.testing.assert_array_equal(centroids, before[1])
        np.testing.assert_array_equal(weights, before[2])

    def test_points_at_centroids(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        weights = np.full((3, 2), 0.5)
        np.testing.assert_array_equal(assign_points(x, x, weights, 1.5), [0, 1, 2])

    def test_hand_assignment(self):
        x = np.array([[0.0], [10.0]])
        centroids = np.array([[1.0], [9.0]])
        weights = np.full((2, 1), 1.0)
        np.testing.assert_array_equal(assign_points(x, centroids, weights, 2.0), [0, 1])

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize(
        "centroid_shape, weight_shape",
        [
            ((2, 3), (3, 3)),  # more weight rows than centroids
            ((3, 3), (2, 3)),  # fewer weight rows than centroids
            ((2, 4), (2, 4)),  # centroid and weight width other than m
            ((2, 3), (2, 2)),  # weight width other than m
            ((0, 3), (0, 3)),  # no centroids
        ],
    )
    def test_shape_mismatch_is_named(self, p, centroid_shape, weight_shape):
        x = np.zeros((5, 3))
        with pytest.raises(DimensionMismatchError, match=r"centroids \(\d+, \d+\)"):
            assign_points(x, np.zeros(centroid_shape), np.full(weight_shape, 0.5), p)


def plain_assign(x, z, w):
    """The p = 2 assignment written out with plain numpy."""
    return np.argmin(np.stack([np.abs(x - z_l) ** 2 @ w_l**2 for z_l, w_l in zip(z, w)]), axis=0)


def simplex_rows(rng, k, m):
    w = rng.random((k, m))
    return w / w.sum(axis=1, keepdims=True)


class TestAssignP2Screen:
    """At p = 2 a matrix-product screen decides the points it can; the
    answer must always be the direct loop's, written out in plain_assign."""

    # powers of two, so scaling leaves the points' exact ties exact
    SCALES = [2.0**-498, 1.0, 2.0**498]  # about 1e-150, 1, 1e150
    SCALE_IDS = ["1e-150", "1", "1e150"]

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    def test_duplicated_centroids_go_to_lower_index(self, scale):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(300, 5)) * scale
        rows = x[rng.choice(300, 3, replace=False)]
        z = rows[[0, 1, 2, 1, 0, 2]]
        w = simplex_rows(rng, 3, 5)[[0, 1, 2, 1, 0, 2]]
        assignments = assign_points(x, z, w, 2.0)
        assert set(assignments) <= {0, 1, 2}
        np.testing.assert_array_equal(assignments, plain_assign(x, z, w))

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 0, 2]])
    def test_equidistant_points_go_to_lower_index(self, scale, order):
        # the first two centroids differ only in features 0 and 1, where
        # every point lies exactly half way: the direct loop ties them
        # exactly, while the expansion mostly rounds the two sides
        # differently, one way in one order and the other way in the
        # other. Each point also goes alone, so no other point's exact
        # tie in the expansion sends the call to the loop.
        rng = np.random.default_rng(12)
        n = 200
        x = np.column_stack([
            np.full(n, 37.0), np.full(n, -21.0), rng.integers(-40, 40, size=(n, 3))
        ])
        z = np.array([[36.0, -23.0, 0, 0, 0], [38.0, -19.0, 0, 0, 0], [90.0] * 5])[order]
        w = simplex_rows(rng, 1, 5)[[0, 0, 0]]
        x, z = x * scale, z * scale
        assignments = assign_points(x, z, w, 2.0)
        np.testing.assert_array_equal(assignments, 0)
        np.testing.assert_array_equal(assignments, plain_assign(x, z, w))
        alone = np.concatenate([assign_points(x[i : i + 1], z, w, 2.0) for i in range(n)])
        np.testing.assert_array_equal(alone, 0)

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_common_offset(self, offset):
        rng = np.random.default_rng(13)
        x = rng.random((2000, 8)) + offset
        z = x[rng.choice(2000, 10, replace=False)]
        w = simplex_rows(rng, 10, 8)
        np.testing.assert_array_equal(assign_points(x, z, w, 2.0), plain_assign(x, z, w))

    @pytest.mark.parametrize(
        "x, z, w",
        [
            # squares overflow, so both computations reach inf
            (np.random.default_rng(14).normal(size=(200, 4)) * 1e200,
             np.random.default_rng(15).normal(size=(3, 4)) * 1e200,
             np.full((3, 4), 0.25)),
            # x^2 and z^2 are finite and so is the weighted expansion, but
            # the direct loop's (x - z)^2 overflows for both clusters
            (np.array([[1e154]]), np.array([[-1e154], [-0.9e154]]), np.full((2, 1), 1e-10)),
        ],
    )
    def test_huge_values(self, x, z, w):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = plain_assign(x, z, w)
            np.testing.assert_array_equal(assign_points(x, z, w, 2.0), expected)

    def test_decided_points_match_loop(self):
        rng = np.random.default_rng(16)
        x = rng.random((5000, 16)) - 0.5
        z = x[rng.choice(5000, 10, replace=False)]
        w = simplex_rows(rng, 10, 16)
        assert engine._screen_p2(x, z, w**2) is not None
        np.testing.assert_array_equal(assign_points(x, z, w, 2.0), plain_assign(x, z, w))

    @pytest.mark.parametrize("offset", [0.0, 1e8], ids=["screened", "falls-back"])
    def test_per_run_squares_match_assign_points_alone(self, monkeypatch, offset):
        # a run squares its points once and hands the squares to
        # assign_points with the points; each iteration must get the
        # assignments, and fall back to the loop exactly when,
        # assign_points on the bare points does
        x = np.random.default_rng(17).random((600, 6)) + offset
        squared, screens, calls = [], [], []
        real_squares, real_screen = engine._squares, engine._screen_p2

        def squares(x):
            squared.append(real_squares(x))
            return squared[-1]

        def screen(*args):
            screens.append(real_screen(*args))
            return screens[-1]

        def assign(points, z, w, p):
            calls.append((points, z.copy(), w.copy(), assign_points(points, z, w, p)))
            return calls[-1][3]

        monkeypatch.setattr(engine, "_squares", squares)
        monkeypatch.setattr(engine, "_screen_p2", screen)
        monkeypatch.setattr(engine, "assign_points", assign)
        report = run(validate_dataset(x), MwkConfig(k=6, p=2.0, seed=3))
        assert len(squared) == 1 and len(calls) == len(screens) == report.iterations > 1
        assert all(points.squares is squared[0] for points, *_ in calls)
        in_run = [s is None for s in screens]
        assert all(in_run) if offset else not any(in_run)
        squared.clear()
        screens.clear()
        for _, z, w, expected in calls:
            np.testing.assert_array_equal(assign_points(x, z, w, 2.0), expected)
        assert [s is None for s in screens] == in_run
        assert len(squared) == len(calls)  # on bare points, each call squares them


@st.composite
def p2_problems(draw):
    def matrix(elements, rows, cols):
        cells = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
        return np.array(cells).reshape(rows, cols)

    n, m = draw(st.integers(1, 30)), draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    # values from a small pool, so rows and columns repeat
    base = matrix(st.sampled_from(draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6))), n, m)
    for v in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        base[:, v] = base[0, v]  # constant column
    scale = draw(st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]))
    offset = draw(st.sampled_from([0.0, 1.0, 1e3, 1e6, 1e8]))
    x = (base + offset) * scale
    if draw(st.booleans()):
        z = x[draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))]  # rows, perhaps repeated
    else:
        z = (matrix(st.floats(-1.0, 1.0), k, m) + offset) * scale
    w = matrix(st.sampled_from([0.0, 0.0, 0.1, 0.3, 1.0]), k, m)
    w[w.sum(axis=1) == 0] = 1.0  # zero weights, but no zero row
    return x, z, w / w.sum(axis=1, keepdims=True)


@settings(max_examples=300, deadline=None)
@given(p2_problems())
def test_p2_assignment_matches_plain_numpy(problem):
    x, z, w = problem
    with np.errstate(over="ignore", invalid="ignore"):
        expected = plain_assign(x, z, w)
        np.testing.assert_array_equal(assign_points(x, z, w, 2.0), expected)


@st.composite
def repair_problems(draw):
    """p2_problems' points, centres and weights (duplicate rows, constant
    columns, zero weights, scales 1e-150 to 1e150) with assignments to
    the first few clusters only, so the rest are empty, and a p at which
    distances are 0, overflow or are NaN."""
    x, z, w = draw(p2_problems())
    used = draw(st.integers(1, z.shape[0]))
    assignments = np.array(draw(st.lists(st.integers(0, used - 1), min_size=len(x), max_size=len(x))))
    return x, assignments, z, w, draw(st.sampled_from([1.0 + 1e-6, 1.5, 2.0, 5.0, 1023.0]))


class TestRepairEmpty:
    # values pinned from the per-cluster-scan implementation
    X = np.array([[10.0, 0.0], [-9.0, 0.0], [11.0, 0.0], [3.0, 0.0], [3.5, 0.0]])
    CENTROIDS = np.array([[0.0, 0.0], [50.0, 50.0], [3.0, 0.0], [60.0, 60.0]])
    WEIGHTS = np.full((4, 2), 0.5)

    @pytest.mark.parametrize("p", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize(
        "before, after",
        [
            ([0, 0, 0, 2, 2], [3, 0, 1, 2, 2]),
            # the first repair leaves cluster 0 one point, so the second
            # must pass over it (distance 9) for cluster 2's farthest (8)
            ([0, 0, 2, 2, 2], [1, 0, 3, 2, 2]),
        ],
    )
    def test_two_empty_clusters(self, p, before, after):
        assignments = np.array(before)
        repairs = engine._repair_empty(self.X, assignments, self.CENTROIDS, self.WEIGHTS, p, 4)
        assert repairs == 2
        np.testing.assert_array_equal(assignments, after)

    def test_nothing_empty(self):
        assignments = np.array([0, 1, 2, 3, 3])
        assert engine._repair_empty(self.X, assignments, self.CENTROIDS, self.WEIGHTS, 2.0, 4) == 0
        np.testing.assert_array_equal(assignments, [0, 1, 2, 3, 3])

    def test_no_donor_with_two_points(self):
        """With fewer points than clusters no point can fill cluster 3:
        the repair names it rather than leave it empty."""
        assignments = np.array([0, 1, 2])
        with pytest.raises(EmptyClusterError, match="cluster 3 is empty"):
            engine._repair_empty(self.X[:3], assignments, self.CENTROIDS, self.WEIGHTS, 2.0, 4)

    @pytest.mark.parametrize("seed", range(6))
    def test_overflowed_distances_rank_as_exact_ones(self, seed):
        """At p = 1023 and data scale 10, w^p |x - z|^p overflows to inf
        and, where w^p underflows, gives NaN; each repair still takes the
        farthest eligible point, as exact rational arithmetic ranks them."""
        rng = np.random.default_rng(seed)
        n, m, k, p = 14, 3, 5, 1023.0
        x = rng.normal(size=(n, m)) * 10.0
        centroids = rng.normal(size=(k, m)) * 10.0
        weights = rng.dirichlet(np.ones(m), size=k)
        assignments = rng.integers(0, 2, size=n)  # clusters 2, 3 and 4 are empty
        with np.errstate(over="ignore", invalid="ignore"):
            per_point = np.einsum("iv,iv->i", np.abs(x - centroids[assignments]) ** p, weights[assignments] ** p)
        assert not np.isfinite(per_point).any()
        # w |x - z| exactly, a dyadic rational; every (w |x - z|)^p on a
        # common power-of-2 denominator, so the sums are exact integers
        terms = [
            [Fraction(weights[a, v]) * abs(Fraction(x[i, v]) - Fraction(centroids[a, v])) for v in range(m)]
            for i, a in enumerate(assignments)
        ]
        bits = max(t.denominator.bit_length() for row in terms for t in row)
        q = int(p)
        exact = [sum(t.numerator**q << q * (bits - t.denominator.bit_length()) for t in row) for row in terms]
        expected = assignments.copy()
        counts = np.bincount(expected, minlength=k)
        for cluster in np.flatnonzero(counts == 0):
            eligible = [i for i in range(n) if counts[expected[i]] >= 2]
            i = max(eligible, key=lambda i: (exact[i], -i))
            counts[expected[i]] -= 1
            counts[cluster] = 1
            expected[i] = cluster
        with np.errstate(over="ignore", invalid="ignore"):
            repairs = engine._repair_empty(x, assignments, centroids, weights, p, k)
        assert repairs == 3
        np.testing.assert_array_equal(assignments, expected)

    def test_log_distances_all_minus_inf(self):
        """At p = 1023 a zero weight times an overflowed |x - z|^p is NaN,
        so the points are ranked by log distance; with the weight row
        [1, 0] and a constant first column every one is -inf. Each repair
        still takes a point of a cluster it leaves nonempty, so no cluster
        is empty after the repair (n >= k)."""
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 3.0]])
        weights = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]])
        assignments = np.zeros(6, dtype=int)
        with np.errstate(over="ignore", invalid="ignore"):
            repairs = engine._repair_empty(x, assignments, np.zeros((3, 2)), weights, 1023.0, 3)
        assert repairs == 2
        assert np.bincount(assignments, minlength=3).all()

    @settings(max_examples=300, deadline=None)
    @given(repair_problems())
    def test_repair_fills_every_cluster(self, problem):
        """For any n >= k, the repair leaves no cluster empty (so no
        donor gave its last point), returns the number of clusters that
        were, and moves exactly one point into each of them."""
        x, assignments, z, w, p = problem
        k = z.shape[0]
        before = assignments.copy()
        empty = np.bincount(before, minlength=k) == 0
        with np.errstate(over="ignore", invalid="ignore"):
            repairs = engine._repair_empty(x, assignments, z, w, p, k)
        counts = np.bincount(assignments, minlength=k)
        moved = np.flatnonzero(assignments != before)
        assert counts.all()
        assert repairs == np.count_nonzero(empty)
        assert sorted(assignments[moved]) == list(np.flatnonzero(empty))

    def test_read_only_inputs_untouched(self):
        dataset = validate_dataset(self.X)
        centroids, weights = self.CENTROIDS.copy(), self.WEIGHTS.copy()
        for a in (centroids, weights):
            a.setflags(write=False)
        assignments = np.array([0, 0, 2, 2, 2])
        assert engine._repair_empty(dataset.values, assignments, centroids, weights, 1.5, 4) == 2
        np.testing.assert_array_equal(dataset.values, self.X)
        np.testing.assert_array_equal(centroids, self.CENTROIDS)
        np.testing.assert_array_equal(weights, self.WEIGHTS)


class TestUpdateCentroids:
    def test_p2_cluster_mean(self):
        x = np.array([[0.0, 2.0], [2.0, 0.0]])
        z = update_centroids(x, np.array([0, 0]), 1, 2.0, 1e-10)
        np.testing.assert_allclose(z, [[1.0, 1.0]])

    def test_singleton_cluster(self):
        x = np.array([[3.0, 7.0], [0.0, 0.0]])
        z = update_centroids(x, np.array([0, 1]), 2, 3.0, 1e-10)
        np.testing.assert_allclose(z[0], [3.0, 7.0])

    def test_p3_matches_grid_oracle(self):
        x = np.array([[0.0], [0.0], [3.0]])
        z = update_centroids(x, np.zeros(3, dtype=int), 1, 3.0, 1e-10)
        assert z[0, 0] == pytest.approx(grid_search_center([0.0, 0.0, 3.0], 3.0), abs=1e-5)

    def test_empty_cluster_raises(self):
        x = np.array([[0.0], [1.0]])
        with pytest.raises(EmptyClusterError):
            update_centroids(x, np.array([0, 0]), 2, 2.0, 1e-10)

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_assignment_outside_range_is_named(self, bad):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(DimensionMismatchError, match=rf"point 1 .* {bad}\b"):
            update_centroids(x, np.array([0, bad, 1, bad]), 2, 2.0, 1e-10)

    def test_one_assignment_per_point_required(self):
        x = np.array([[0.0], [10.0], [20.0]])
        with pytest.raises(DimensionMismatchError, match="expected 3 assignments"):
            update_centroids(x, np.array([0, 1]), 2, 2.0, 1e-10)


class TestRun:
    def test_k_equals_n_gives_zero_objective(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 3))
        report = run(validate_dataset(x), MwkConfig(k=8, p=2.5, seed=1))
        assert report.final_state.objective == pytest.approx(0.0, abs=1e-30)
        assert report.converged

    def test_k1_matches_dispersion_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        p = 1.7
        report = run(validate_dataset(x), MwkConfig(k=1, p=p, seed=2))
        d = report.dispersions
        assert report.final_state.objective == pytest.approx(
            objective_via_dispersions(d, p), rel=1e-9
        )
        np.testing.assert_allclose(
            report.final_state.weights, update_weights(d, p), atol=1e-12
        )

    def test_recovers_separated_blobs(self):
        values, labels = two_blob_dataset()
        ds = validate_dataset(values)
        best, _ = run_restarts(ds, MwkConfig(k=2, p=2.0, seed=0, restarts=20))
        agreement = best_label_agreement(labels, best.final_state.assignments, 2)
        assert agreement >= 0.99

    def test_overflowing_dispersions_are_named(self):
        # every cell is finite, but |x - z|^3 overflows, and 0 x inf in
        # the dispersion product made update_weights name a NaN at (1, 0)
        x = np.random.default_rng(0).standard_normal((300, 4)) * 1e150
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DispersionOverflowError) as exc:
            run(validate_dataset(x), MwkConfig(k=3, p=3.0))
        assert isinstance(exc.value, MwkError)
        assert exc.value.p == 3.0 and "p = 3" in str(exc.value)

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_numpy_warnings(self):
        """The overflows behind DispersionOverflowError, in assignment and
        in the dispersions, warn of nothing on the way, and numpy's error
        state is as it was afterwards."""
        x = np.random.default_rng(0).standard_normal((300, 4)) * 1e150
        before = np.geterr()
        with pytest.raises(DispersionOverflowError):
            run(validate_dataset(x), MwkConfig(k=3, p=3.0))
        assert np.geterr() == before

    def test_k_exceeding_n_rejected(self):
        ds = validate_dataset([[0.0], [1.0]])
        with pytest.raises(InvalidConfigError):
            run(ds, MwkConfig(k=3, p=2.0))

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_monotone_trace_outside_repairs(self, p):
        rng = np.random.default_rng(int(p * 7))
        for trial in range(5):
            x = rng.normal(size=(int(rng.integers(15, 40)), int(rng.integers(2, 5))))
            report = run(validate_dataset(x), MwkConfig(k=3, p=p, seed=trial))
            trace = report.objective_trace
            repairs = set(report.repair_iterations)
            for t in range(len(trace) - 1):
                if t + 1 in repairs:
                    continue
                assert trace[t + 1] <= trace[t] * (1 + 1e-9)
            assert report.iterations <= 100

    def test_determinism(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(25, 3))
        ds = validate_dataset(x)
        cfg = MwkConfig(k=3, p=1.5, seed=11)
        a = run(ds, cfg)
        b = run(ds, cfg)
        assert a.objective_trace == b.objective_trace
        np.testing.assert_array_equal(a.final_state.assignments, b.final_state.assignments)
        np.testing.assert_array_equal(a.final_state.weights, b.final_state.weights)

    def test_events_observed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 2))
        events: list[EngineEvent] = []
        report = run(validate_dataset(x), MwkConfig(k=2, p=2.0, seed=3), observer=events.append)
        assert len(events) == report.iterations
        assert [e.objective for e in events] == list(report.objective_trace)

    def test_bound_containment_of_final_objective(self):
        rng = np.random.default_rng(7)
        for p in [1.2, 2.0, 4.0]:
            x = rng.normal(size=(30, 3))
            report = run(validate_dataset(x), MwkConfig(k=3, p=p, seed=8))
            lower, upper = report.bounds
            eps = 1e-9 * upper
            assert lower - eps <= report.final_state.objective <= upper + eps
            assert 0.0 <= report.normalised_objective <= 1.0


    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    def test_objective_matches_plain_recomputation(self, p):
        """The reported objective is sum_i sum_v w_{a(i)v}^p |x_iv - z_{a(i)v}|^p
        of the final assignments, centres and weights, recomputed with plain
        numpy. The golden gates compare only scale-free outputs, so a uniform
        relative drift of |x - z|^p shows here and nowhere else."""
        rng = np.random.default_rng(int(p * 10))
        for trial in range(4):
            x = rng.normal(size=(int(rng.integers(30, 80)), int(rng.integers(2, 6))))
            state = run(validate_dataset(x), MwkConfig(k=3, p=p, seed=trial)).final_state
            z = state.centroids[state.assignments]
            w = state.weights[state.assignments]
            expected = float(np.sum(w**p * np.abs(x - z) ** p))
            assert state.objective == pytest.approx(expected, rel=1e-12, abs=0)

    def test_settled_iteration_reuses_its_centres(self, monkeypatch):
        """An iteration that reassigns and repairs nothing keeps the last
        centres, dispersions and weights: no centre solve, the same
        objective, and still one trace entry."""
        x, _ = two_blob_dataset(n_per_blob=30, separation=8.0, seed=2)
        config = MwkConfig(k=2, p=1.5, tol_objective=0.0, seed=0)
        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return update_centroids(*args, **kwargs)

        monkeypatch.setattr(engine, "update_centroids", counting)
        events = []
        report = run(validate_dataset(x), config, observer=events.append)
        assert report.converged and events[-1].n_reassigned == 0
        assert len(solves) == report.iterations - 1
        assert len(report.objective_trace) == report.iterations == len(events)
        assert report.objective_trace[-1] == report.objective_trace[-2]

    def test_center_passes_observed(self):
        """Each event counts its iteration's solver passes: some at
        p = 1.1, none at p = 2 (the closed-form mean) nor on the
        iteration that keeps its centres."""
        x, _ = two_blob_dataset(n_per_blob=30, separation=8.0, seed=2)
        for p in (1.1, 2.0):
            events = []
            run(validate_dataset(x), MwkConfig(k=2, p=p, tol_objective=0.0, seed=0), events.append)
            passes = [e.center_passes for e in events]
            assert events[-1].n_reassigned == 0 and passes[-1] == 0
            if p == 2.0:
                assert passes == [0] * len(events)
            else:
                assert sum(passes) > 0 and min(passes[:-1]) > 0


def _reference_shape(seed, n_points=1000, n_informative=4, n_noise=4, k_true=3):
    """A range-normalised dataset of the reference protocol's shape."""
    dataset, _ = generate(SyntheticSpec(n_points, n_informative, n_noise, k_true, seed=seed))
    return range_normalise(dataset)[0]


class TestCoarseToFine:
    """While points move the engine solves centres on the coarse grid
    geometry._COARSE_GRID; every run still ends with the fine centres of
    its final partition, and the coarse grid changes no answer."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 5.0])
    @pytest.mark.parametrize(
        "stop, overrides",
        [
            ("no-reassign", {"tol_objective": 0.0}),
            ("objective", {"tol_objective": 1e-2}),
            ("max-iter", {"max_iter": 1}),
            ("max-iter", {"max_iter": 2}),
            ("max-iter", {"max_iter": 3}),
        ],
    )
    def test_final_centres_are_the_fine_solve_of_the_final_partition(self, p, stop, overrides):
        dataset = _reference_shape(0, n_points=300)
        config = MwkConfig(k=3, p=p, seed=5, **overrides)
        events = []
        report = run(dataset, config, events.append)
        # the run stopped the way this case is about
        if stop == "max-iter":
            assert not report.converged and report.iterations == config.max_iter
        else:
            assert report.converged
            assert (events[-1].n_reassigned == 0) == (stop == "no-reassign")
        if stop == "no-reassign":  # the fine centres reassigned nothing
            assert events[-1].center_passes == 0
        state = report.final_state
        fine = update_centroids(dataset, state.assignments, 3, p, config.center_tol)
        np.testing.assert_array_equal(state.centroids, fine)

    @pytest.mark.parametrize(
        "shape, p, seeds",
        [
            ({"seed": 0}, 1.1, range(3)),
            ({"seed": 0}, 1.5, range(3)),
            ({"seed": 0}, 5.0, range(3)),
            ({"seed": 1}, 1.1, range(3)),
            ({"seed": 1}, 1.5, range(3)),
            ({"seed": 1}, 5.0, range(3)),
            # here continuing into a fine iteration, in place of
            # re-solving when the objective test fires, ends elsewhere
            ({"seed": 0, "n_points": 5000, "n_informative": 8, "n_noise": 8, "k_true": 10}, 1.5, [2]),
        ],
    )
    def test_coarse_grid_does_not_change_the_answer(self, monkeypatch, shape, p, seeds):
        dataset = _reference_shape(**shape)
        k = shape.get("k_true", 3)
        for seed in seeds:
            config = MwkConfig(k=k, p=p, seed=seed)
            coarse = run(dataset, config)
            with monkeypatch.context() as patch:
                patch.setattr(geometry, "_COARSE_GRID", 0.0)  # no coarse phase: fine throughout
                fine = run(dataset, config)
            for name in ("assignments", "centroids", "weights"):
                np.testing.assert_array_equal(
                    getattr(coarse.final_state, name), getattr(fine.final_state, name)
                )
            assert coarse.final_state.objective == fine.final_state.objective
            np.testing.assert_array_equal(coarse.dispersions.d, fine.dispersions.d)
            assert coarse.bounds == fine.bounds
            assert coarse.normalised_objective == fine.normalised_objective

    def test_guard_keeps_the_trace_non_increasing(self, monkeypatch):
        """On a 2^-4 coarse grid, 20 of these 45 runs raise their trace
        outside repairs without the guard. With it, a coarse iteration
        whose objective rises above the last trace entry re-solves its
        partition fine, so the trace never rises outside repairs (within
        perfbench's relative 1e-9) and the run still ends with the fine
        centres of its final partition."""
        monkeypatch.setattr(geometry, "_COARSE_GRID", 2.0**-4)
        objectives = []  # every objective the loop computes, a re-solve's too
        plain_objective = engine._objective

        def recording(*args):
            objectives.append(plain_objective(*args))
            return objectives[-1]

        monkeypatch.setattr(engine, "_objective", recording)
        fired = 0
        for d in range(3):
            dataset = _reference_shape(d, n_points=300)
            for p in (1.1, 1.5, 5.0):
                for seed in range(5):
                    config = MwkConfig(k=3, p=p, seed=seed)
                    events = []
                    objectives.clear()
                    report = run(dataset, config, events.append)
                    trace, repairs = report.objective_trace, set(report.repair_iterations)
                    for t in range(1, len(trace)):
                        if t not in repairs:
                            assert trace[t] <= trace[t - 1] * (1 + 1e-9)
                    fine = update_centroids(dataset, report.final_state.assignments, 3, p, config.center_tol)
                    np.testing.assert_array_equal(report.final_state.centroids, fine)
                    # the guard, not rule (b), fired where a re-solved
                    # iteration's coarse objective rose by more than the
                    # objective test's tolerance
                    computed = iter(objectives)
                    for t, event in enumerate(events):
                        coarse = next(computed)
                        if event.resolved_fine:
                            next(computed)
                            fired += not engine._stalled(trace[t - 1], coarse, config.tol_objective) and (
                                coarse > trace[t - 1]
                            )
        assert fired > 0


class TestStepOptimality:
    def test_assignment_step_is_pointwise_optimal(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 3))
        p = 1.8
        centroids = x[rng.choice(20, 3, replace=False)]
        weights = update_weights(np.exp(rng.normal(0, 1, (3, 3))), p)
        assignments = assign_points(x, centroids, weights, p)
        base = brute_force_objective(x, assignments, centroids, weights, p)
        for i in range(20):
            for l in range(3):
                if l == assignments[i]:
                    continue
                perturbed = assignments.copy()
                perturbed[i] = l
                assert brute_force_objective(x, perturbed, centroids, weights, p) >= base - 1e-12

    def test_weight_step_is_optimal_along_simplex(self):
        rng = np.random.default_rng(9)
        d = np.exp(rng.normal(0, 1, (2, 4)))
        p = 2.3
        w = update_weights(d, p)
        base = float(np.sum(w**p * d))
        for l in range(2):
            for u in range(4):
                for v in range(4):
                    if u == v:
                        continue
                    perturbed = w.copy()
                    perturbed[l, u] += 1e-3
                    perturbed[l, v] -= 1e-3
                    if perturbed[l, v] <= 0:
                        continue
                    assert float(np.sum(perturbed**p * d)) >= base - 1e-15


class TestRunRestarts:
    def test_single_restart_equals_run(self):
        rng = np.random.default_rng(10)
        ds = validate_dataset(rng.normal(size=(20, 2)))
        cfg = MwkConfig(k=2, p=2.0, seed=4, restarts=1)
        best, reports = run_restarts(ds, cfg)
        assert len(reports) == 1
        assert best.objective_trace == run(ds, cfg).objective_trace

    def test_best_is_minimum(self):
        rng = np.random.default_rng(11)
        ds = validate_dataset(rng.normal(size=(40, 3)))
        best, reports = run_restarts(ds, MwkConfig(k=3, p=1.5, seed=0, restarts=10))
        objectives = [r.final_state.objective for r in reports]
        assert best.final_state.objective == min(objectives)

    def test_identical_invocations_identical_reports(self):
        rng = np.random.default_rng(12)
        ds = validate_dataset(rng.normal(size=(25, 2)))
        cfg = MwkConfig(k=2, p=2.0, seed=9, restarts=5)
        a, _ = run_restarts(ds, cfg)
        b, _ = run_restarts(ds, cfg)
        assert a.objective_trace == b.objective_trace


class TestClassicKMeans:
    def test_k1_centroid_is_mean(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(15, 3))
        report = run_classic_kmeans(validate_dataset(x), k=1)
        np.testing.assert_allclose(report.final_state.centroids[0], x.mean(axis=0), atol=1e-12)
        assert report.final_state.objective == pytest.approx(
            float(((x - x.mean(axis=0)) ** 2).sum())
        )

    def test_two_identical_points(self):
        report = run_classic_kmeans(validate_dataset([[1.0, 2.0], [1.0, 2.0]]), k=1)
        assert report.final_state.objective == 0.0

    def test_recovers_separated_blobs(self):
        values, labels = two_blob_dataset(seed=21)
        report = run_classic_kmeans(validate_dataset(values), k=2, seed=5)
        assert best_label_agreement(labels, report.final_state.assignments, 2) >= 0.99

    def test_no_bounds_reported(self):
        report = run_classic_kmeans(validate_dataset([[0.0], [1.0], [2.0]]), k=1)
        assert report.bounds is None
        assert report.normalised_objective is None

    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"tol": -1.0}, {"k": 0}, {"max_iter": 0}])
    def test_invalid_arguments_rejected(self, kwargs):
        args = {"k": 1, **kwargs}
        with pytest.raises(InvalidConfigError):
            run_classic_kmeans(validate_dataset([[0.0], [1.0], [2.0]]), **args)

    def test_overflow_is_named_not_nan(self):
        # the squares overflow; the report used to carry a NaN objective
        x = np.random.default_rng(0).standard_normal((300, 4)) * 1e200
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DispersionOverflowError):
            run_classic_kmeans(validate_dataset(x), k=3)

    def test_objective_is_sse_and_weights_uniform(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(40, 3))
        report = run_classic_kmeans(validate_dataset(x), k=3, seed=2)
        state = report.final_state
        sse = float(((x - state.centroids[state.assignments]) ** 2).sum())
        assert state.objective == pytest.approx(sse, rel=1e-12)
        np.testing.assert_array_equal(state.weights, np.full((3, 3), 1 / 3))


@pytest.mark.parametrize("k", range(1, 65))
def test_true_rows_match_argmax(k):
    """The p = 2 screen reads each point's cluster off a mask with one
    True per column; a float product gives np.argmax's rows exactly."""
    rng = np.random.default_rng(k)
    for n in (0, 1, 7, 5000):
        mask = np.zeros((k, n), dtype=bool)
        mask[rng.integers(0, k, n), np.arange(n)] = True
        rows = engine._true_rows(mask)
        assert rows.dtype == np.intp
        np.testing.assert_array_equal(rows, np.argmax(mask, axis=0))


def _same(a, b):
    """Equality of reports, states and events field by field, arrays bit
    for bit, dtype and shape included."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return type(a) is type(b) and a == b


def _outcome(call):
    """The events an observer sees during call and its result, or the
    type and message of the MwkError it raises."""
    events = []
    try:
        return events, call(events.append)
    except MwkError as exc:
        return events, (type(exc), str(exc))


@st.composite
def batch_problems(draw):
    m = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1.0, 10.0]))  # |x - z|^1023 overflows at 10
    pool = np.array(draw(st.lists(st.floats(-scale, scale), min_size=distinct * m, max_size=distinct * m)))
    pool = pool.reshape(distinct, m)
    if draw(st.booleans()):
        pool[:, 0] = pool[0, 0]  # a constant column
    # every pooled row at least once, some more often: duplicate rows
    rows = list(range(distinct)) + draw(st.lists(st.integers(0, distinct - 1), max_size=30))
    x = pool[draw(st.permutations(rows))]
    distinct = len(np.unique(x, axis=0))
    # k equal to the number of distinct points forces repairs
    k = draw(st.one_of(st.just(distinct), st.integers(1, min(4, len(rows)))))
    config = MwkConfig(
        k=k,
        p=draw(st.sampled_from([1.0 + 1e-6, 1.01, 1.1, 1.5, 2.0, 5.0, 64.0, 130.0, 1023.0])),
        # 1-3 exercise rule (c), 1e-2 rule (b)
        max_iter=draw(st.sampled_from([1, 2, 3, 100])),
        tol_objective=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
        seed=draw(st.integers(0, 1000)),
        restarts=draw(st.integers(2, 6)),
    )
    return validate_dataset(x), config


@settings(max_examples=300, deadline=None)
@given(batch_problems())
# seed 320's second repair once emptied the cluster its first had filled
@example((
    validate_dataset(np.array([[0, 0], [0, 0], [0, 1], [0, 1], [0, 0], [0, 3]], dtype=float)),
    MwkConfig(k=3, p=1023.0, tol_objective=0.0, max_iter=2, seed=319, restarts=2),
))
def test_restarts_equal_separate_runs(problem):
    """run_restarts, which runs its restarts in lock step, equals separate
    run calls in seed order: every report field bit for bit, the observer
    events and their order, and the error raised, if any."""
    dataset, config = problem
    separate = _outcome(lambda observer: [
        run(dataset, dataclasses.replace(config, seed=config.seed + i), observer)
        for i in range(config.restarts)
    ])

    def restarts(observer):
        best, reports = run_restarts(dataset, config, observer)
        assert best is min(reports, key=lambda r: r.final_state.objective)
        return reports

    batched = _outcome(restarts)
    event("raises" if isinstance(separate[1], tuple) else "returns")
    event(f"repairs: {any(e.n_empty_repaired for e in separate[0])}")
    event(f"max-iter stops: {any(not r.converged for r in separate[1]) if isinstance(separate[1], list) else None}")
    assert _same(batched, separate)


def _overflowing(step, args):
    result = step(*args)
    return dataclasses.replace(result, d=np.full_like(result.d, np.inf))


def _unrepairable(step, args):
    raise EmptyClusterError(0)


@pytest.mark.parametrize(
    "target, fail, error_type",
    [
        ("compute_dispersions", _overflowing, DispersionOverflowError),
        ("_repair_empty", _unrepairable, EmptyClusterError),
    ],
    ids=["overflow", "empty-cluster"],
)
def test_first_failure_in_seed_order_wins(monkeypatch, target, fail, error_type):
    """Where a later seed fails in an earlier round of the lock step than
    an earlier seed, run_restarts raises as separate run calls in seed
    order do: the observer sees the earlier seed's iterations up to its
    failure and nothing of the later seeds. The failures are forced at
    one step of the loop, keyed on the assignments it is called with:
    seed 0's third call and seed 1's first, recorded from single runs.
    An overflow makes compute_dispersions return an infinite matrix
    (DispersionOverflowError); an EmptyClusterError comes from
    _repair_empty itself."""
    dataset = _reference_shape(2, n_points=300)
    config = MwkConfig(k=3, p=1.5, seed=0, restarts=3)
    step = getattr(engine, target)
    calls = []  # the assignments of each call, before the call can edit them

    def recording(*args):
        calls.append(args[1].tobytes())
        return step(*args)

    monkeypatch.setattr(engine, target, recording)
    run(dataset, config)
    first = calls[:]
    calls.clear()
    run(dataset, dataclasses.replace(config, seed=1))
    poison = {first[2], calls[0]}
    assert first[2] not in first[:2] and calls[0] not in first[:2]

    def failing(*args):
        return fail(step, args) if args[1].tobytes() in poison else step(*args)

    monkeypatch.setattr(engine, target, failing)
    separate = _outcome(lambda observer: [
        run(dataset, dataclasses.replace(config, seed=config.seed + i), observer)
        for i in range(config.restarts)
    ])
    events, error = separate
    # seed 0 fails after one or more whole iterations, seed 1 in its first
    assert error[0] is error_type
    assert [e.iteration for e in events] == list(range(len(events))) and events
    assert _same(_outcome(lambda observer: run_restarts(dataset, config, observer)[1]), separate)


def test_batch_above_the_row_budget_peaks_as_one_run(monkeypatch):
    """Restarts that together exceed the row budget run one at a time,
    so their peak allocation stays within 1.5 times that of one run (the
    margin holds the earlier runs' reports); stacked, the same restarts
    peak higher."""
    tracemalloc = pytest.importorskip("tracemalloc")
    dataset = _reference_shape(0, n_points=600)
    config = MwkConfig(k=3, p=1.5, seed=0, max_iter=3, restarts=6)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda: run(dataset, config))
    monkeypatch.setattr(engine, "_BATCH_ROWS", 1024)  # above 2 x 600 rows: one run per batch
    alone = peak(lambda: run_restarts(dataset, config))
    monkeypatch.setattr(engine, "_BATCH_ROWS", 6 * 600)
    stacked = peak(lambda: run_restarts(dataset, config))
    assert alone <= 1.5 * one < stacked


class TestStackedCentroids:
    """update_centroids over the assignments of several runs at once."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("coarse", [False, True])
    def test_each_run_gets_the_bits_and_passes_of_its_own_call(self, p, coarse):
        dataset = _reference_shape(1, n_points=200)
        rng = np.random.default_rng(30)
        assignments = rng.integers(0, 4, size=(5, 200))
        starts = rng.random((5, 4, dataset.m))
        passes = np.empty(5 * 4, dtype=np.intp)
        stacked = update_centroids(
            dataset, assignments, 4, p, 1e-10, starts, coarse=coarse, _block_passes=passes
        )
        assert stacked.shape == (5, 4, dataset.m)
        for r in range(5):
            alone = np.empty(4, dtype=np.intp)
            z = update_centroids(dataset, assignments[r], 4, p, 1e-10, starts[r], coarse=coarse, _block_passes=alone)
            assert stacked[r].tobytes() == z.tobytes()
            assert passes[4 * r : 4 * r + 4].tolist() == alone.tolist()

    def test_empty_cluster_of_a_later_run_is_named(self):
        x = np.arange(6.0)[:, None]
        with pytest.raises(EmptyClusterError) as exc:
            update_centroids(x, np.array([[0, 1, 2, 0, 1, 2], [0, 0, 2, 2, 0, 2]]), 3, 1.5, 1e-10)
        assert exc.value.cluster == 1
