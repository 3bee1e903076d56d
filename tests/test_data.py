import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    # an empty, a reversed, a NaN or an infinite box, or one whose width overflows
    @pytest.mark.parametrize(
        "box", [(1.0, 1.0), (2.0, 1.0), (np.nan, 1.0), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)]
    )
    def test_rejects_empty_center_box(self, box):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(n_points=10, n_informative=2, n_noise=0, k_true=2, center_box=box)

    @pytest.mark.parametrize("std", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_cluster_std(self, std):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(n_points=10, n_informative=2, n_noise=0, k_true=2, cluster_std=std)


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


class TestCsvLinesAndHeader:
    def test_blank_lines_count_towards_the_line_number(self, tmp_path):
        assert _parse_error(tmp_path, "1,2\n\n3,x\n")[:2] == (3, 1)
        assert _parse_error(tmp_path, "\n\na,b\n1,2\n3,x\n")[:2] == (5, 1)

    def test_header_narrower_than_rows(self, tmp_path):
        line, col, message = _parse_error(tmp_path, "a,b\n1,2,3\n")
        assert (line, col) == (1, 0)
        assert message == "line 1, column 0: header has 2 cells, rows have 3"

    def test_header_wider_than_rows(self, tmp_path):
        assert _parse_error(tmp_path, "\na,b,c,d\n1,2,3\n") == (
            2, 0, "line 2, column 0: header has 4 cells, rows have 3"
        )

    def test_header_counts_the_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y,label\n1,2,0\n")
        assert load_csv(path, has_labels=True).feature_names == ("x", "y")
        assert _parse_error(tmp_path, "x,y\n1,2,0\n", has_labels=True)[:2] == (1, 0)

    def test_undecodable_byte_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\r\n3,\xff4\n")
        with pytest.raises(CsvParseError) as exc:
            load_csv(path)
        assert (exc.value.line, exc.value.col) == (2, 1)
        assert "0xff" in str(exc.value)

    @pytest.mark.parametrize("sep", ["\x1c", "\x0c", " ", "\x85"])
    def test_only_csv_line_ends_split_rows(self, tmp_path, sep):
        assert _parse_error(tmp_path, f"1,2\n3,4{sep}5,6\n") == (
            2, 0, "line 2, column 0: expected 2 cells, got 3"
        )

    @pytest.mark.parametrize("token", ["\x1c4", "4\x1d", "\x1e4\x1f"])
    def test_ascii_separators_are_not_whitespace_around_a_number(self, tmp_path, token):
        # numpy's C reader would strip them and read 4; float() rejects them
        assert _parse_error(tmp_path, f"1,2\n3,{token}\n") == (
            2, 1, f"line 2, column 1: not a number: {token!r}"
        )

    def test_hash_is_a_cell_not_a_comment(self, tmp_path):
        assert _parse_error(tmp_path, "1,2\n#3,4\n5,6\n") == (2, 0, "line 2, column 0: not a number: '#3'")

    def test_header_spanning_two_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"a\nb",c\n1,2\n3,4\n')
        loaded = load_csv(path)
        assert loaded.feature_names == ("a\nb", "c")
        assert loaded.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_float_only_tokens_and_quotes_still_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,b,label\n1_000,"2",x\n١,4,y\n')
        loaded = load_csv(path, has_labels=True)
        assert loaded.values.tolist() == [[1000.0, 2.0], [1.0, 4.0]]
        assert loaded.labels.tolist() == ["x", "y"]

    def test_peak_memory_is_a_small_multiple_of_the_values(self, tmp_path):
        rng = np.random.default_rng(7)
        d = validate_dataset(
            rng.normal(size=(20_000, 16)),
            feature_names=[f"f{j}" for j in range(16)],
            labels=rng.integers(10, size=20_000),
        )
        path = tmp_path / "d.csv"
        save_csv(d, path)
        tracemalloc.start()
        try:
            loaded = load_csv(path, has_labels=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.values, d.values)
        np.testing.assert_array_equal(loaded.labels, d.labels)
        assert peak < 4 * loaded.values.nbytes


class _Malformed(Exception):
    pass


def _reference_load(text, has_labels):
    """load_csv written plainly: csv.reader rows with physical line
    numbers, float() per cell, the header rule, the label rule. Returns
    (values, labels, names) or raises _Malformed(line, col, message)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, start = [], 1
    for row in reader:
        if row:
            rows.append((start, row))
        start = reader.line_num + 1
    if not rows:
        raise _Malformed(1, 0, "file is empty")
    line, first = rows[0]
    names = None
    if any(not _floats(tok) for tok in (first[:-1] if has_labels else first)):
        rows = rows[1:]
        if not rows:
            raise _Malformed(line + 1, 0, "header without data rows")
        if len(first) != len(rows[0][1]):
            raise _Malformed(line, 0, f"header has {len(first)} cells, rows have {len(rows[0][1])}")
        names = tuple(first[:-1] if has_labels else first)
    width = len(rows[0][1])
    n_data = width - 1 if has_labels else width
    for line, row in rows:
        if len(row) != width:
            raise _Malformed(line, 0, f"expected {width} cells, got {len(row)}")
        for col, tok in enumerate(row[:n_data]):
            if not _floats(tok):
                raise _Malformed(line, col, f"not a number: {tok!r}")
    values = np.array([[float(tok) for tok in row[:n_data]] for _, row in rows])
    labels = None
    if has_labels:
        tokens = [row[-1] for _, row in rows]
        try:
            labels = np.array(tokens, dtype=int)
        except (ValueError, OverflowError):
            labels = np.array(tokens)
    return values, labels, names


def _floats(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300]),
    st.integers(-(10**6), 10**6).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
_BAD_TOKENS = ["x", "", "#3", "1d5", "0x10", "1__0", "--1", "1e", "nan(1)", '1"5', "\x1c1", "2\x1f"]
_LABELS = {
    "int": ["0", "1", "7", "-2", " 3", "+4"],
    "any": ["0", "1", "1_0", "a", "cat", "1.5", "nan", '"q"', " z "],
}


@st.composite
def _spelled(draw, value):
    """A token float() reads as value, in one of several spellings."""
    plain = repr(value)
    style = draw(st.sampled_from(["repr", "g17", "spaces", "plus", "upper", "underscore", "quoted"]))
    if style == "g17":
        return format(value, ".17g")
    if style == "spaces":
        return draw(st.sampled_from([" ", "\t", "  "])) + plain + draw(st.sampled_from(["", " ", "\t"]))
    if style == "plus" and not plain.startswith("-"):
        return "+" + plain
    if style == "upper":
        return plain.upper()
    if style == "underscore" and value.is_integer() and 1000 <= abs(value) < 1e16:
        return f"{int(value):_}"
    if style == "quoted":
        return f'"{plain}"'
    return plain


@st.composite
def _csv_texts(draw):
    """(text, has_labels): a numeric CSV in varied shapes, sometimes with
    one malformation (a bad token, a ragged row, a header of the wrong
    width, two rows joined by a non-csv line break)."""
    fault = draw(st.sampled_from([None, None, None, "bad", "ragged", "header", "join"]))
    # a join shows only on a third row, after two rows have set the width
    n = draw(st.integers(3 if fault == "join" else 1, 5))
    m = draw(st.integers(1, 3))
    label_kind = draw(st.sampled_from([None, "int", "any"]))
    has_labels = label_kind is not None
    rows = [[draw(_spelled(draw(_VALUES))) for _ in range(m)] for _ in range(n)]
    if has_labels:
        for row in rows:
            row.append(draw(st.sampled_from(_LABELS[label_kind])))
    header = None
    if draw(st.booleans()):
        header = [draw(st.sampled_from(["f", "x y", '"a,b"', '"two\nlines"'])) for _ in range(m)]
        header += ["label"] if has_labels else []
    if fault == "bad":
        row = draw(st.integers(0, n - 1))
        rows[row][draw(st.integers(0, m - 1))] = draw(st.sampled_from(_BAD_TOKENS))
    elif fault == "ragged":
        row = rows[draw(st.integers(0, n - 1))]
        row.append("5") if draw(st.booleans()) or len(row) <= 2 else row.pop()
    elif fault == "header" and header is not None:
        header.append("extra") if draw(st.booleans()) or len(header) == 1 else header.pop()
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(row) for row in ([header] if header else []) + rows]
    parts = []
    for j, line in enumerate(lines):
        parts.append(end * draw(st.integers(0, 2)) + line)
        if j + 1 < len(lines):
            joined = fault == "join" and j + 1 == len(lines) - 1
            parts.append(draw(st.sampled_from(["\x1c", " ", "\x0c"])) if joined else end)
    text = "".join(parts) + draw(st.sampled_from(["", end, end * 2]))
    return text, has_labels


@settings(max_examples=400, deadline=None)
@given(_csv_texts())
def test_load_csv_matches_a_plain_csv_reader(tmp_path_factory, case):
    text, has_labels = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    try:
        expected = _reference_load(text, has_labels)
    except _Malformed as fault:
        with pytest.raises(CsvParseError) as exc:
            load_csv(path, has_labels=has_labels)
        assert (exc.value.line, exc.value.col, str(exc.value)) == (
            fault.args[0], fault.args[1], f"line {fault.args[0]}, column {fault.args[1]}: {fault.args[2]}"
        )
        return
    values, labels, names = expected
    if not np.isfinite(values).all():  # a "nan" label shifted into a feature column
        with pytest.raises(NonFiniteError):
            load_csv(path, has_labels=has_labels)
        return
    loaded = load_csv(path, has_labels=has_labels)
    np.testing.assert_array_equal(loaded.values.view(np.uint64), values.view(np.uint64))
    assert loaded.feature_names == names
    if labels is None:
        assert loaded.labels is None
    else:
        assert loaded.labels.dtype == labels.dtype
        assert loaded.labels.tolist() == labels.tolist()
