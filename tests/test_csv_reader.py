"""load_csv against the two-pass reader it replaced (tests/csv_reader_oracle.py):
the same Dataset, or the same error, for labelled and unlabelled files."""
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import csv_reader_oracle
from mwkmeans import load_csv, save_csv, validate_dataset
from mwkmeans.errors import MwkError

_VALUE_TOKENS = ["0", "-0.0", "1.5", " 2", "+3", "1e3", "5e-324", "1e300", "007", "3_0", '"4"', "x", "nan"]
# label tokens that int() and numpy's int64 parser might read differently
_LABEL_TOKENS = [
    "+3", " 3", "3 ", "\t3", "007", "-0", "0", "-12", "3.0", "1e3", "3_0", "1__0", "0x10",
    "12345678901234567890", "-12345678901234567890", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "٣", "\u00a03", "3\x0b", "+-3", "",
    "cat", " z ", '"7"', "nan", "inf",
]


# label columns drawn from one small pool each, so that a column of
# integers (the one-pass case) is common
_LABEL_POOLS = [
    ["0", "1", "2", "-4", "+3", " 3", "007", "-0"],
    ["1", "12345678901234567890"],
    ["1", "3.0"],
    ["1", "1e3"],
    ["1", "3_0"],
    ["a", "bc", "1"],
    _LABEL_TOKENS,
]


@st.composite
def labelled_csvs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 3))
    values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    pool = st.sampled_from(draw(st.sampled_from(_LABEL_POOLS)))
    # now and then any short token of digits, signs, blanks and the like
    token = pool if draw(st.integers(0, 4)) else st.one_of(pool, st.text("0123456789+- \t_.e٣", max_size=4))
    rows = [[draw(values) for _ in range(m)] + [draw(token)] for _ in range(n)]
    if m and draw(st.integers(0, 4)) == 0:  # one value token of another spelling, or a bad one
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(st.sampled_from(_VALUE_TOKENS))
    if draw(st.integers(0, 9)) == 0:  # a ragged row
        rows[draw(st.integers(0, n - 1))].append("1")
    header = [f"f{j}" for j in range(m)] + ["label"] if draw(st.booleans()) else None
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(row) for row in ([header] if header else []) + rows]
    return end.join(lines) + draw(st.sampled_from(["", end])), draw(st.integers(0, 3)) > 0


def _load(load, path, has_labels):
    try:
        return load(path, has_labels=has_labels)
    except MwkError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(labelled_csvs())
def test_load_csv_matches_the_two_pass_reader(tmp_path_factory, case):
    """Every label token, parsed in the one C pass or in the csv.reader
    walk, gives the values (bit for bit), feature names and labels (dtype
    and values) of the two-pass reader, or raises the same error."""
    text, has_labels = case
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text, newline="")
    got = _load(load_csv, path, has_labels)
    expected = _load(csv_reader_oracle.load_csv, path, has_labels)
    if isinstance(expected, tuple):
        event("raises")
        assert got == expected
        return
    event(f"labels: {None if expected.labels is None else expected.labels.dtype.kind}")
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.values.shape == expected.values.shape
    assert got.feature_names == expected.feature_names
    if expected.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == expected.labels.dtype
        assert got.labels.tolist() == expected.labels.tolist()


@pytest.mark.parametrize(
    "token, label",
    [("+3", 3), (" 3", 3), ("007", 7), ("-0", 0), ("3.0", "3.0"), ("1e3", "1e3"), ("3_0", 30),
     ("12345678901234567890", "12345678901234567890"), ("cat", "cat"), ("nan", "nan"), ("inf", "inf"),
     ("-12", -12)],
)
def test_label_tokens(tmp_path, token, label):
    """The tokens the one C pass must leave to the csv.reader walk (3.0,
    1e3, nan, inf, 3_0, a 20-digit integer, a string) and those it takes."""
    path = tmp_path / "d.csv"
    path.write_text(f"1.5,{token}\n2.5,4\n")
    loaded = load_csv(path, has_labels=True)
    assert loaded.labels.tolist() == [label, 4 if isinstance(label, int) else "4"]
    assert loaded.values.tolist() == [[1.5], [2.5]]


def test_integer_labels_take_one_pass(tmp_path, monkeypatch):
    """A file with integer labels is parsed by one np.loadtxt call."""
    d = validate_dataset(np.arange(12.0).reshape(4, 3), feature_names=["a", "b", "c"], labels=[0, 1, 1, 2])
    path = tmp_path / "d.csv"
    save_csv(d, path)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(kw) or loadtxt(*a, **kw))
    loaded = load_csv(path, has_labels=True)
    assert len(calls) == 1
    assert loaded.values.tobytes() == d.values.tobytes()
    assert loaded.labels.dtype == np.int64 and loaded.labels.tolist() == [0, 1, 1, 2]
    assert loaded.values.flags.c_contiguous and loaded.labels.flags.c_contiguous


def test_unlabelled_file_takes_one_pass(tmp_path, monkeypatch):
    """A file without labels is parsed by one np.loadtxt call."""
    d = validate_dataset(np.arange(12.0).reshape(4, 3), feature_names=["a", "b", "c"])
    path = tmp_path / "d.csv"
    save_csv(d, path)
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(kw) or loadtxt(*a, **kw))
    loaded = load_csv(path)
    assert len(calls) == 1
    assert loaded.values.tobytes() == d.values.tobytes() and loaded.labels is None
