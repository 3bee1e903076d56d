"""The CSV reader as it was while every labelled file took two C passes,
one for the values (labels parsed as floats) and one for the label
tokens, kept verbatim. tests/test_csv_reader.py checks load_csv against
it."""
from __future__ import annotations

import csv
import re

import numpy as np

from mwkmeans.core import Dataset
from mwkmeans.errors import CsvParseError


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
    line of the first data row)."""
    rows = _numbered_rows(fh)
    line, first = next(rows, (1, None))
    if first is None:
        raise CsvParseError(1, 0, "file is empty")
    if all(_is_number(tok) for tok in (first[:-1] if has_labels else first)):
        return None, line
    header_line, header = line, first
    line, first = next(rows, (header_line + 1, None))
    if first is None:
        raise CsvParseError(header_line + 1, 0, "header without data rows")
    if len(header) != len(first):
        raise CsvParseError(
            header_line, 0, f"header has {len(header)} cells, rows have {len(first)}"
        )
    return header, line


def _read_c(fh, skip: int, has_labels: bool):
    """Parse the data rows with numpy's C reader, skipping the first
    skip physical lines. Returns (values, label tokens or None); raises
    ValueError for anything the reader does not take as a float, for a
    ragged row, and for a file holding any of _SEPARATORS."""
    fh.seek(0)
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if any(sep in chunk for sep in _SEPARATORS):
            raise ValueError("file holds an ASCII separator")
    fh.seek(0)
    values = np.loadtxt(fh, skiprows=skip, ndmin=2, **_C_READER)
    if not has_labels:
        return values, None
    # every label cell just parsed as a float, so it holds no quote and
    # no NUL, and this pass reads the token csv.reader would
    fh.seek(0)
    tokens = np.loadtxt(fh, skiprows=skip, usecols=-1, dtype=object, ndmin=1, **_C_READER)
    return _drop_last_column(values), tokens


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
    numpy's C reader (np.loadtxt), which converts each cell with the
    same correctly rounded routine float() uses and keeps no Python
    object per feature cell (one str per label), so memory stays a small
    multiple of the values' bytes. When it rejects anything (a quoted
    cell, a ragged row, a bad token, a token only float() takes, such as
    '1_000', or a label that is not a number), or the file holds a
    character from \\x1c to \\x1f (numpy strips them from the ends of a
    token, float() does not), the rows are parsed again with csv.reader
    and float() per cell. That gives the same values, or raises
    CsvParseError at the first malformed cell, counting physical lines.
    A byte the text encoding cannot decode also raises CsvParseError.
    """
    try:
        with open(path, newline="") as fh:
            header, first_line = _read_header(fh, has_labels)
            try:
                values, tokens = _read_c(fh, first_line - 1, has_labels)
            except UnicodeDecodeError:
                raise
            except ValueError:
                values, tokens = _read_walk(fh, first_line, has_labels)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, exc) from None
    labels = None
    if tokens is not None:
        try:
            labels = np.array(tokens, dtype=int)
        except (ValueError, OverflowError):
            labels = np.array(tokens, dtype=str)
    names = header[: values.shape[1]] if header is not None else None
    return Dataset._adopt(values, names, labels)
