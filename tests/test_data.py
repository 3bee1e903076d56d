import numpy as np
import pytest

from helpers import best_label_agreement
from mwkmeans import (
    SyntheticSpec,
    generate,
    load_csv,
    range_normalise,
    run_classic_kmeans,
    save_csv,
    validate_dataset,
)
from mwkmeans.errors import ConstantFeatureError, CsvParseError, InvalidSpecError, NonFiniteError


class TestSyntheticSpec:
    def test_rejects_fewer_points_than_clusters(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(n_points=2, n_informative=2, n_noise=0, k_true=3)

    def test_rejects_no_informative(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(n_points=10, n_informative=0, n_noise=2, k_true=2)

    def test_rejects_empty_center_box(self):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(n_points=10, n_informative=2, n_noise=0, k_true=2, center_box=(1.0, 1.0))


class TestGenerate:
    def test_reference_protocol_shape(self):
        spec = SyntheticSpec(n_points=1000, n_informative=4, n_noise=4, k_true=3, seed=0)
        dataset, centers = generate(spec)
        assert dataset.values.shape == (1000, 8)
        assert centers.shape == (3, 4)
        assert dataset.labels.shape == (1000,)
        assert set(np.unique(dataset.labels)) == {0, 1, 2}

    def test_deterministic(self):
        spec = SyntheticSpec(n_points=100, n_informative=3, n_noise=2, k_true=2, seed=42)
        a, _ = generate(spec)
        b, _ = generate(spec)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_std_recovers_labels_exactly(self):
        spec = SyntheticSpec(n_points=60, n_informative=2, n_noise=0, k_true=3, seed=1, cluster_std=0.0)
        dataset, centers = generate(spec)
        np.testing.assert_array_equal(dataset.values, centers[dataset.labels])
        report = run_classic_kmeans(dataset, k=3, seed=0)
        assert best_label_agreement(dataset.labels, report.final_state.assignments, 3) == 1.0

    def test_cluster_std_sanity(self):
        spec = SyntheticSpec(n_points=600, n_informative=3, n_noise=0, k_true=2, seed=3, cluster_std=0.5)
        dataset, _ = generate(spec)
        for l in range(2):
            stds = dataset.values[dataset.labels == l].std(axis=0)
            assert np.all(np.abs(stds - 0.5) < 0.1)

    def test_noise_features_are_label_independent(self):
        spec = SyntheticSpec(n_points=1000, n_informative=4, n_noise=4, k_true=3, seed=4)
        dataset, _ = generate(spec)
        noise = dataset.values[:, 4:]
        global_mean = noise.mean(axis=0)
        for l in range(3):
            cluster_mean = noise[dataset.labels == l].mean(axis=0)
            assert np.all(np.abs(cluster_mean - global_mean) < 0.1)


class TestRangeNormalise:
    def test_hand_values(self):
        d, stats = range_normalise(validate_dataset([[0.0], [1.0]]))
        np.testing.assert_allclose(d.values, [[-0.5], [0.5]])
        assert stats[0] == {"feature": 0, "mean": 0.5, "min": 0.0, "max": 1.0}

    def test_already_normalised_unchanged(self):
        d, _ = range_normalise(validate_dataset([[-0.5], [0.5]]))
        np.testing.assert_allclose(d.values, [[-0.5], [0.5]])

    def test_constant_feature_rejected(self):
        with pytest.raises(ConstantFeatureError) as exc:
            range_normalise(validate_dataset([[1.0, 3.0], [2.0, 3.0]]))
        assert exc.value.feature == 1

    def test_unit_range_zero_mean(self):
        rng = np.random.default_rng(5)
        d, _ = range_normalise(validate_dataset(rng.normal(2, 7, (200, 6))))
        span = d.values.max(axis=0) - d.values.min(axis=0)
        np.testing.assert_allclose(span, 1.0, atol=1e-12)
        np.testing.assert_allclose(d.values.mean(axis=0), 0.0, atol=1e-12)


class TestCsvRoundTrip:
    def test_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(6)
        original = validate_dataset(rng.normal(size=(10, 3)))
        path = tmp_path / "d.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.values, original.values, atol=1e-15)

    def test_header_honoured(self, tmp_path):
        d = validate_dataset([[1.0, 2.0, 3.0]], feature_names=["f1", "f2", "f3"])
        path = tmp_path / "d.csv"
        save_csv(d, path)
        assert path.read_text().splitlines()[0] == "f1,f2,f3"
        loaded = load_csv(path)
        assert loaded.feature_names == ("f1", "f2", "f3")

    def test_labels_round_trip(self, tmp_path):
        d = validate_dataset([[1.0], [2.0]], feature_names=["x"], labels=[0, 1])
        path = tmp_path / "d.csv"
        save_csv(d, path)
        loaded = load_csv(path, has_labels=True)
        np.testing.assert_array_equal(loaded.labels, [0, 1])
        assert loaded.m == 1

    def test_string_labels_do_not_make_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,a\n3,4,b\n")
        loaded = load_csv(path, has_labels=True)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(loaded.labels, ["a", "b"])
        assert loaded.feature_names is None

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path)
        assert (exc.value.line, exc.value.col) == (2, 1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvParseError):
            load_csv(path)


def _parse_error(tmp_path, text, **kwargs):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvParseError) as exc:
        load_csv(path, **kwargs)
    return exc.value.line, exc.value.col, str(exc.value)


class TestCsvParsing:
    def test_ragged_row_located_without_header(self, tmp_path):
        line, col, message = _parse_error(tmp_path, "1,2\n3,4\n5\n")
        assert (line, col) == (3, 0)
        assert message == "line 3, column 0: expected 2 cells, got 1"

    def test_ragged_row_located_after_header(self, tmp_path):
        line, col, _ = _parse_error(tmp_path, "a,b\n1,2\n3,4,5\n")
        assert (line, col) == (3, 0)

    def test_ragged_row_located_with_labels(self, tmp_path):
        assert _parse_error(tmp_path, "1,2,0\n3,4,5,1\n", has_labels=True)[:2] == (2, 0)
        assert _parse_error(tmp_path, "x,label\n1,0\n3\n", has_labels=True)[:2] == (3, 0)
        assert _parse_error(tmp_path, "1,2,0\n3,4\n", has_labels=True)[:2] == (2, 0)

    def test_bad_token_after_header_is_on_line_three(self, tmp_path):
        line, col, message = _parse_error(tmp_path, "a,b\n1,2\n3,x\n")
        assert (line, col) == (3, 1)
        assert message == "line 3, column 1: not a number: 'x'"

    def test_first_malformed_cell_in_file_order_wins(self, tmp_path):
        assert _parse_error(tmp_path, "1,2\n1,x\n3,4\n5\n")[:2] == (2, 1)
        assert _parse_error(tmp_path, "1,2\n3\n1,x\n")[:2] == (2, 0)
        assert _parse_error(tmp_path, "1,2,0\ny,x,0\n", has_labels=True)[:2] == (2, 0)

    def test_label_cell_is_never_parsed_as_a_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,label\n1,2,a\n3,4,b\n")
        loaded = load_csv(path, has_labels=True)
        np.testing.assert_array_equal(loaded.values, [[1.0, 2.0], [3.0, 4.0]])
        assert loaded.labels.tolist() == ["a", "b"]
        assert loaded.feature_names == ("x", "y")

    def test_string_labels_survive_a_round_trip(self, tmp_path):
        d = validate_dataset([[1.0], [2.0], [3.0]], feature_names=["x"], labels=["cat", "dog", "cat"])
        path = tmp_path / "d.csv"
        save_csv(d, path)
        assert load_csv(path, has_labels=True).labels.tolist() == ["cat", "dog", "cat"]

    @pytest.mark.parametrize("token", [" 1.5 ", "1_000", "Infinity", "\u0661", "0x10", "", "1d5", "1__0", "-1e3"])
    def test_tokens_accepted_exactly_as_float_does(self, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"0,1\n0,{token}\n")
        try:
            expected = float(token)
        except ValueError:
            expected = None
        if expected is None:
            with pytest.raises(CsvParseError) as exc:
                load_csv(path)
            assert (exc.value.line, exc.value.col) == (2, 1)
        elif not np.isfinite(expected):
            with pytest.raises(NonFiniteError) as exc:
                load_csv(path)
            assert (exc.value.row, exc.value.col) == (1, 1)
        else:
            assert load_csv(path).values.tolist() == [[0.0, 1.0], [0.0, expected]]

    def test_nan_cell_is_non_finite(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,nan\n")
        with pytest.raises(NonFiniteError) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (1, 1)

    def test_feature_name_with_comma_round_trips(self, tmp_path):
        d = validate_dataset([[1.0, 2.0]], feature_names=["height, cm", "w"])
        path = tmp_path / "d.csv"
        save_csv(d, path)
        assert path.read_text().splitlines()[0] == '"height, cm",w'
        assert load_csv(path).feature_names == ("height, cm", "w")
