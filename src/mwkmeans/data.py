"""Synthetic mixture generation, range normalisation, and CSV I/O.

Generated datasets are spherical Gaussian blobs on the informative
features plus uniform-[0,1] noise features, with the generating
component recorded as a label. Generation splits one seed into four
independent substreams (component centres, component choice per point,
Gaussian offsets, noise features), so a (seed, spec) pair pins the
dataset exactly.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass

import numpy as np

from .core import Dataset
from .errors import ConstantFeatureError, CsvParseError, InvalidSpecError


@dataclass(frozen=True)
class SyntheticSpec:
    n_points: int
    n_informative: int
    n_noise: int
    k_true: int
    seed: int = 0
    cluster_std: float = 1.0
    center_box: tuple[float, float] = (-2.0, 2.0)

    def __post_init__(self):
        if self.k_true < 1:
            raise InvalidSpecError("k_true must be >= 1")
        if self.n_points < self.k_true:
            raise InvalidSpecError("n_points must be >= k_true")
        if self.n_informative < 1:
            raise InvalidSpecError("n_informative must be >= 1")
        if self.n_noise < 0:
            raise InvalidSpecError("n_noise must be >= 0")
        if not 0 <= self.cluster_std < np.inf:
            raise InvalidSpecError("cluster_std must be finite and nonnegative")
        lo, hi = self.center_box
        if not (lo < hi and np.isfinite(hi - lo)):
            raise InvalidSpecError("center_box must be a nonempty interval of finite width")


def generate(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Draw a labelled dataset from the spec; returns (dataset, true
    component centres of shape (k_true, n_informative))."""
    ss = np.random.SeedSequence(spec.seed)
    s_centers, s_labels, s_offsets, s_noise = ss.spawn(4)
    lo, hi = spec.center_box
    centers = np.random.default_rng(s_centers).uniform(lo, hi, (spec.k_true, spec.n_informative))
    labels = np.empty(spec.n_points, dtype=int)
    # first k_true points pin one member per component; the rest are uniform
    labels[: spec.k_true] = np.arange(spec.k_true)
    labels[spec.k_true :] = np.random.default_rng(s_labels).integers(
        spec.k_true, size=spec.n_points - spec.k_true
    )
    offsets = np.random.default_rng(s_offsets).normal(
        0.0, 1.0, (spec.n_points, spec.n_informative)
    )
    offsets *= spec.cluster_std
    offsets += centers[labels]  # the informative features
    noise = np.random.default_rng(s_noise).uniform(0.0, 1.0, (spec.n_points, spec.n_noise))
    values = np.hstack([offsets, noise])
    names = [f"f{v}" for v in range(spec.n_informative)] + [
        f"noise{v}" for v in range(spec.n_noise)
    ]
    return Dataset._adopt(values, names, labels), centers


def range_normalise(dataset: Dataset) -> tuple[Dataset, list[dict]]:
    """Shift each feature to mean 0 and scale it to range 1:
    x <- (x - mean) / (max - min). Returns the per-feature stats needed
    to invert the transform. Constant features are rejected."""
    x = dataset.values
    means = x.mean(axis=0)
    mins = x.min(axis=0)
    maxs = x.max(axis=0)
    ranges = maxs - mins
    for v, r in enumerate(ranges):
        if r == 0.0:
            raise ConstantFeatureError(v)
    normalised = x - means
    normalised /= ranges
    stats = [
        {"feature": v, "mean": float(means[v]), "min": float(mins[v]), "max": float(maxs[v])}
        for v in range(x.shape[1])
    ]
    # the labels are already a read-only array of the input dataset
    return Dataset._adopt(normalised, dataset.feature_names, dataset.labels), stats


LABEL_COLUMN = "label"


_QUOTED = re.compile('[,"\r\n]')
# rows that save_csv turns into Python objects at a time
_SAVE_CHUNK = 256


def _quote(text: str) -> str:
    """text as one CSV cell: in quotes, each '"' doubled, where it holds
    ',', '"', '\\r' or '\\n' (csv.writer's rule, except that Python 3.11's
    leaves a bare '\\r' unquoted, and load_csv would split the row there)."""
    return '"' + text.replace('"', '""') + '"' if _QUOTED.search(text) else text


def _line(cells: list) -> str:
    """The cells as one line; a row whose only cell is empty is written
    as '""', as csv.writer writes it, so that it does not read as a blank
    line."""
    return ('""' if cells == [""] else ",".join(map(_quote, cells))) + "\n"


def _cell_text(cell) -> str:
    return format(cell, ".17g") if isinstance(cell, float) else str(cell)


def write_csv(path, header, rows) -> None:
    """Write one CSV table: the header row (if not None, written as
    given), then the rows, taken from any iterable one at a time. Float
    cells get 17 significant digits (enough for an exact round trip);
    every other cell is written with str. Each cell is quoted by _quote."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(_line(list(header)))
        for row in rows:
            fh.write(_line([_cell_text(c) for c in row]))


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as write_csv would, _SAVE_CHUNK rows at a time.
    Feature names become a header row (none when the dataset has no
    names); labels, written as str and quoted by _quote, become a
    trailing column. Every row is m floats and perhaps a label, so one %
    template built once formats it, each float with 17 significant
    digits."""
    values, labels = dataset.values, dataset.labels
    header = None if dataset.feature_names is None else list(dataset.feature_names)
    if labels is not None and header is not None:
        header.append(LABEL_COLUMN)
    template = ",".join(["%.17g"] * values.shape[1]) + ("\n" if labels is None else ",%s\n")
    with open(path, "w", newline="") as fh:
        write = fh.write
        if header is not None:
            write(_line(header))
        for start in range(0, len(values), _SAVE_CHUNK):
            rows = values[start : start + _SAVE_CHUNK].tolist()
            if labels is not None:
                for row, label in zip(rows, labels[start : start + _SAVE_CHUNK].astype(str).tolist()):
                    row.append(_quote(label))
            for row in rows:
                write(template % tuple(row))


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


# numpy's C reader, told to treat no character but "," specially: a
# quoted cell or "#" reaches the float parser verbatim and fails there
_C_READER = {"delimiter": ",", "comments": None, "quotechar": None}
# numpy's float parser strips these ASCII separators from the ends of a
# token as whitespace; float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# rows that _drop_last_column moves at a time
_MOVE_ROWS = 1024


def _numbered_rows(fh):
    """Yield (line, cells) for each non-empty csv row of fh, where line is
    the physical line the row starts on, blank lines included."""
    reader = csv.reader(fh)
    line = 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def _read_header(fh, has_labels: bool):
    """Read fh up to its first data row; returns (header or None, the
    line of the first data row, the cells in that row)."""
    rows = _numbered_rows(fh)
    line, first = next(rows, (1, None))
    if first is None:
        raise CsvParseError(1, 0, "file is empty")
    if all(_is_number(tok) for tok in (first[:-1] if has_labels else first)):
        return None, line, len(first)
    header_line, header = line, first
    line, first = next(rows, (header_line + 1, None))
    if first is None:
        raise CsvParseError(header_line + 1, 0, "header without data rows")
    if len(header) != len(first):
        raise CsvParseError(
            header_line, 0, f"header has {len(header)} cells, rows have {len(first)}"
        )
    return header, line, len(first)


def _read_c(fh, skip: int, width: int, has_labels: bool):
    """Parse the data rows, width cells each, with one np.loadtxt call,
    skipping the first skip physical lines. Returns (values, int64
    labels or None); raises ValueError for anything the C reader does
    not take as a float, for a ragged row, for a label its int64 parser
    rejects, and for a file holding any of _SEPARATORS.

    With labels, each row is parsed as width - 1 floats and an int64
    label. numpy's int64 parser takes only ASCII digits with an optional
    sign and surrounding blanks, tokens that int() reads as the same
    integer."""
    fh.seek(0)
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if any(sep in chunk for sep in _SEPARATORS):
            raise ValueError("file holds an ASCII separator")
    fh.seek(0)
    if not has_labels:
        return np.loadtxt(fh, skiprows=skip, ndmin=2, **_C_READER), None
    fields = [("values", float, (width - 1,)), ("label", np.int64)]
    rows = np.loadtxt(fh, skiprows=skip, dtype=fields, ndmin=1, **_C_READER)
    labels = rows["label"].copy()  # before _drop_last_column writes over it
    # the records, without padding, are rows of width float64 cells
    return _drop_last_column(rows.view(float).reshape(len(rows), width)), labels


def _drop_last_column(a: np.ndarray) -> np.ndarray:
    """a[:, :-1] as a C-contiguous array in a's own buffer, which a gives
    up. (Parsing only those columns with usecols would let numpy accept
    ragged rows.) Rows move towards the start _MOVE_ROWS at a time: a
    block's target ends before the next block's source begins, and numpy
    buffers a block whose source and target overlap."""
    n, m = a.shape[0], a.shape[1] - 1
    out = a.reshape(-1)[: n * m].reshape(n, m)
    for start in range(0, n, _MOVE_ROWS):
        out[start : start + _MOVE_ROWS] = a[start : start + _MOVE_ROWS, :m]
    return out


def _raise_first_bad_cell(rows, width: int, n_data: int) -> None:
    """Raise CsvParseError at the first malformed cell in file order: a
    row of the wrong width, or a data cell that float() rejects."""
    for line, row in rows:
        if len(row) != width:
            raise CsvParseError(line, 0, f"expected {width} cells, got {len(row)}")
        for col, tok in enumerate(row[:n_data]):
            if not _is_number(tok):
                raise CsvParseError(line, col, f"not a number: {tok!r}")


def _read_walk(fh, first_line: int, has_labels: bool):
    """Parse the rows from first_line on with csv.reader and float():
    the one path that accepts float()-only tokens such as '1_000' and
    quoted cells, and the one that raises CsvParseError for a bad cell.
    Returns (values, label tokens or None)."""
    fh.seek(0)
    rows = [(line, row) for line, row in _numbered_rows(fh) if line >= first_line]
    width = len(rows[0][1])
    n_data = width - 1 if has_labels else width
    # row[:-1] keeps a row of the wrong width ragged, so numpy rejects it
    cells = [row[:-1] if has_labels else row for _, row in rows]
    try:
        # numpy converts each str with float() itself, so it accepts and
        # rejects exactly the tokens float() does
        values = np.array(cells, dtype=float)
    except ValueError:
        _raise_first_bad_cell(rows, width, n_data)
        raise
    return values, [row[-1] for _, row in rows] if has_labels else None


def _undecodable(path, exc: UnicodeDecodeError) -> CsvParseError:
    """Name the line and column of the first byte of path that does not
    decode. Reads the file again, so it runs only on this error path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole_file:
        exc = whole_file  # offsets from the file's start, not from a read chunk's
    lines = re.split(r"\r\n?|\n", data[: exc.start].decode(exc.encoding, errors="replace"))
    col = len(next(csv.reader([lines[-1]]), [""])) - 1
    byte = exc.object[exc.start]
    return CsvParseError(len(lines), col, f"byte 0x{byte:02x} is not valid {exc.encoding}")


def load_csv(path, has_labels: bool = False) -> Dataset:
    """Read a dataset written by save_csv (or any numeric CSV).

    A first row with any non-numeric feature cell is treated as a
    header; it must have as many cells as the data rows (label column
    included). With has_labels=True the last column is split off as
    labels: integers when every label parses as one, otherwise the
    label strings; a label cell never makes a row a header.

    The header is read with csv.reader. The data rows then go through
    one pass of numpy's C reader (np.loadtxt), which converts each cell
    with the same correctly rounded routine float() uses and keeps no
    Python object per feature cell, so memory stays a small multiple of
    the values' bytes; integer labels are parsed in that pass, as an
    int64 field beside the values. When the reader rejects anything (a
    quoted cell, a ragged row, a bad token, a token only float() takes,
    such as '1_000', or a label other than a plain integer, such as
    '3.0', '1e3', 'nan' or 'cat'), or the file holds a character from
    \\x1c to \\x1f (numpy strips them from the ends of a token, float()
    does not), the rows are parsed instead with csv.reader and float()
    per cell. That gives the same values, or raises CsvParseError at the
    first malformed cell, counting physical lines.
    A byte the text encoding cannot decode also raises CsvParseError.
    """
    try:
        with open(path, newline="") as fh:
            header, first_line, width = _read_header(fh, has_labels)
            try:
                values, tokens = _read_c(fh, first_line - 1, width, has_labels)
            except UnicodeDecodeError:
                raise
            except ValueError:
                values, tokens = _read_walk(fh, first_line, has_labels)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    labels = None
    if tokens is not None:
        try:
            labels = np.asarray(tokens, dtype=int)
        except (ValueError, OverflowError):
            labels = np.array(tokens, dtype=str)
    names = header[: values.shape[1]] if header is not None else None
    return Dataset._adopt(values, names, labels)
