"""The streaming CSV writer against the pre-streaming one (csv_oracle),
byte for byte; the memory it and the loaders use; and which arrays a
Dataset copies."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csv_oracle
from mwkmeans import Dataset, SyntheticSpec, generate, load_csv, range_normalise, save_csv, validate_dataset
from mwkmeans.data import write_csv
from mwkmeans.errors import NonFiniteError

# characters csv.writer quotes for, plus a blank and non-ASCII text
_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(',"\r\n x'), st.characters(codec="utf-8")), max_size=5
)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1]),
)
_FLOATS = st.one_of(_FINITE, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
_CELLS = st.one_of(
    _FLOATS,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    _TEXT,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
    _TEXT.map(np.str_),
    st.sampled_from([None, 1 + 2j, (1, 2), b"a,b"]),
)
_ROWS = st.lists(
    st.one_of(
        st.lists(_CELLS, max_size=4),
        st.lists(_CELLS, min_size=1, max_size=4).map(tuple),
        st.just([""]),
        st.lists(_FINITE, min_size=3, max_size=3),  # repeats one row type
    ),
    max_size=12,
)
_HEADERS = st.one_of(st.none(), st.lists(_TEXT, max_size=4))


def _table(path, write, header, rows) -> bytes:
    write(path, header, rows)
    return path.read_bytes()


def _saved(path, save, dataset) -> bytes:
    save(dataset, path)
    return path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(header=_HEADERS, rows=_ROWS)
def test_write_csv_bytes_equal_the_oracle(tmp_path_factory, header, rows):
    tmp = tmp_path_factory.mktemp("w")
    new = _table(tmp / "new.csv", write_csv, header, iter(rows))
    assert new == _table(tmp / "old.csv", csv_oracle.write_csv, header, rows)


@st.composite
def _datasets(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    values = draw(st.lists(st.lists(_FINITE, min_size=m, max_size=m), min_size=n, max_size=n))
    names = draw(st.one_of(st.none(), st.lists(_TEXT, min_size=m, max_size=m)))
    labels = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(-(2**40), 2**40), min_size=n, max_size=n).map(np.array),
            st.lists(_TEXT, min_size=n, max_size=n).map(np.array),
        )
    )
    return validate_dataset(values, feature_names=names, labels=labels)


@settings(max_examples=300, deadline=None)
@given(dataset=_datasets())
def test_save_csv_bytes_equal_the_oracle(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("s")
    assert _saved(tmp / "new.csv", save_csv, dataset) == _saved(
        tmp / "old.csv", csv_oracle.save_csv, dataset
    )


# labels that csv.writer quotes, and the empty label, which it does not
_ODD_LABELS = ["a,b", 'say "x"', "x\ry", "l\nm", "\r\n", ""]


def _str_labels(n, odd_at):
    """n plain str labels, with the _ODD_LABELS in turn at odd_at."""
    labels = [f"c{i % 4}" for i in range(n)]
    for i, j in enumerate(odd_at):
        labels[j] = _ODD_LABELS[i % len(_ODD_LABELS)]
    return np.array(labels)


@pytest.mark.parametrize(
    "labels",
    [
        lambda rng: rng.integers(5, size=1000),
        # odd labels on both sides of the first and second chunk edges
        lambda rng: _str_labels(1000, [*range(250, 262), *range(509, 515), 999]),
        # odd labels only away from the edges: plain rows meet them there
        lambda rng: _str_labels(1000, [3, 100, 300, 700]),
        lambda rng: _str_labels(1000, range(1000)),
        lambda rng: np.array([""] * 1000),
    ],
    ids=["ints", "odd-at-edges", "plain-at-edges", "all-odd", "all-empty"],
)
def test_save_csv_streams_past_one_chunk(tmp_path, labels):
    rng = np.random.default_rng(3)
    d = validate_dataset(
        rng.normal(size=(1000, 3)), feature_names=["a", "b,c", 'd"'], labels=labels(rng)
    )
    assert _saved(tmp_path / "new.csv", save_csv, d) == _saved(
        tmp_path / "old.csv", csv_oracle.save_csv, d
    )


def test_quoted_rows_keep_their_place(tmp_path):
    rows = [[1.5, "a"], [2.5, "b,c"], [3.5, "d"], ["", 1], [""], ['"'], [], [None, 0.1]]
    assert _table(tmp_path / "new.csv", write_csv, ["x", "y"], rows) == (
        b'x,y\n1.5,a\n2.5,"b,c"\n3.5,d\n,1\n""\n""""\n\nNone,0.10000000000000001\n'
    )


def test_bare_carriage_return_is_quoted(tmp_path):
    # csv.writer given "\n" leaves a bare "\r" unquoted on Python 3.11
    rows = [["x\ry", 1], [2.5, "\r"], ["a\r\nb", "c"]]
    assert _table(tmp_path / "new.csv", write_csv, ["h\r", "k"], rows) == (
        b'"h\r",k\n"x\ry",1\n2.5,"\r"\n"a\r\nb",c\n'
    )


def test_labels_and_names_with_a_bare_carriage_return_round_trip(tmp_path):
    # unquoted, the "\r" split the row and load_csv raised CsvParseError (line 3)
    d = validate_dataset([[1.0, 2.0], [3.0, 4.0]], feature_names=["a\rb", "c"], labels=np.array(["x\ry", "z"]))
    save_csv(d, tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv", has_labels=True)
    np.testing.assert_array_equal(loaded.values, d.values)
    assert loaded.labels.tolist() == ["x\ry", "z"]
    assert loaded.feature_names == ("a\rb", "c")


# --- memory: the 20,000 x 16 labelled dataset of test_data's peak test ---


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    rng = np.random.default_rng(7)
    d = validate_dataset(
        rng.normal(size=(20_000, 16)),
        feature_names=[f"f{j}" for j in range(16)],
        labels=rng.integers(10, size=20_000),
    )
    return d, tmp_path_factory.mktemp("wide") / "d.csv"


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_csv_peak_memory(wide):
    # 7.92x the values' bytes when every cell became a Python object; 0.32x streamed
    d, path = wide
    _, peak = _peak(lambda: save_csv(d, path))
    assert peak < 1.5 * d.values.nbytes


def test_load_csv_and_range_normalise_peak_memory(wide):
    # 2.38x and 2.19x when Dataset copied the arrays they had just built;
    # 1.24x and 1.03x now
    d, path = wide
    save_csv(d, path)
    loaded, peak_load = _peak(lambda: load_csv(path, has_labels=True))
    np.testing.assert_array_equal(loaded.values, d.values)
    assert peak_load < 1.4 * d.values.nbytes
    _, peak_norm = _peak(lambda: range_normalise(loaded))
    assert peak_norm < 1.15 * d.values.nbytes


# --- who copies ---


def _spy(monkeypatch, name):
    """Record every array np.<name> returns."""
    made, real = [], getattr(np, name)

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, name, spy)
    return made


@pytest.mark.parametrize("has_labels", [False, True])
def test_load_csv_keeps_the_parsed_array(tmp_path, monkeypatch, has_labels):
    path = tmp_path / "d.csv"
    path.write_text("a,b,label\n1,2,3\n4,5,6\n7,8,9\n" if has_labels else "a,b\n1,2\n4,5\n7,8\n")
    parsed = _spy(monkeypatch, "loadtxt")
    d = load_csv(path, has_labels=has_labels)
    assert np.shares_memory(d.values, parsed[0])
    assert d.values.flags.c_contiguous and not d.values.flags.writeable
    assert d.values.tolist() == [[1.0, 2.0], [4.0, 5.0], [7.0, 8.0]]
    if has_labels:
        assert d.labels.tolist() == [3, 6, 9] and not d.labels.flags.writeable


def test_load_csv_drops_the_label_column_in_blocks(tmp_path):
    # more rows than one block of the in-place move
    rng = np.random.default_rng(5)
    d = validate_dataset(rng.normal(size=(2500, 3)), labels=rng.integers(4, size=2500))
    save_csv(d, tmp_path / "d.csv")
    loaded = load_csv(tmp_path / "d.csv", has_labels=True)
    np.testing.assert_array_equal(loaded.values, d.values)
    np.testing.assert_array_equal(loaded.labels, d.labels)
    assert loaded.values.flags.c_contiguous


def test_generate_keeps_the_stacked_array(monkeypatch):
    stacked = _spy(monkeypatch, "hstack")
    d, _ = generate(SyntheticSpec(n_points=50, n_informative=2, n_noise=2, k_true=3))
    assert np.shares_memory(d.values, stacked[0])
    assert not d.values.flags.writeable and not d.labels.flags.writeable


def test_range_normalise_shares_the_read_only_labels():
    d, _ = generate(SyntheticSpec(n_points=50, n_informative=2, n_noise=2, k_true=3))
    out, _ = range_normalise(d)
    assert np.shares_memory(out.labels, d.labels)
    assert not np.shares_memory(out.values, d.values)
    assert not out.values.flags.writeable


def test_adopt_takes_the_array_over_and_still_checks_it():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = Dataset._adopt(x, ["a", "b"], np.array([0, 1]))
    assert np.shares_memory(d.values, x) and not x.flags.writeable
    assert d.feature_names == ("a", "b")
    with pytest.raises(NonFiniteError) as exc:
        Dataset._adopt(np.array([[1.0, 2.0], [np.nan, 4.0]]))
    assert (exc.value.row, exc.value.col) == (1, 0)


@pytest.mark.parametrize("build", [Dataset, validate_dataset])
def test_caller_arrays_are_copied_and_stay_writable(build):
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    y = np.array([0, 1])
    d = build(values=x, labels=y)
    assert not np.shares_memory(d.values, x) and not np.shares_memory(d.labels, y)
    assert x.flags.writeable and y.flags.writeable
    assert not d.values.flags.writeable and not d.labels.flags.writeable


def test_finite_cells_whose_sum_overflows_are_accepted():
    d = validate_dataset([[1e308, -1e308], [1e308, -1e308]])
    assert d.values[1, 1] == -1e308


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_first_non_finite_cell_is_named_beside_an_overflow(bad):
    x = np.full((3, 2), 1e308)
    x[2, 0] = bad
    x[2, 1] = -bad
    with pytest.raises(NonFiniteError) as exc:
        validate_dataset(x)
    assert (exc.value.row, exc.value.col) == (2, 0)
