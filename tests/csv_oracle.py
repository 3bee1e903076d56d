"""The CSV writer as it was before write_csv streamed its rows, kept
verbatim but for one rule: a cell holding a bare '\\r' is quoted too.
Every cell becomes a str in Python, and csv.writer writes all rows.
tests/test_csv_writer.py checks the streaming writer against it byte
for byte."""
from __future__ import annotations

import csv
import io

from mwkmeans import Dataset

LABEL_COLUMN = "label"


def write_csv(path, header, rows) -> None:
    """Write one CSV table: the header row (if not None), then the rows.
    Float cells get 17 significant digits (enough for an exact round
    trip); every other cell is written with str. csv.writer writes each
    row with the line terminator "\\r\\n", so that it quotes a cell
    holding '\\r' as it quotes one holding '\\n'; the file gets "\\n"."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", newline="") as fh:

        def writerow(cells):
            buf.seek(0)
            buf.truncate()
            writer.writerow(cells)
            fh.write(buf.getvalue().removesuffix("\r\n") + "\n")

        if header is not None:
            writerow(header)
        for row in rows:
            writerow([format(c, ".17g") if isinstance(c, float) else str(c) for c in row])


def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset with write_csv. Feature names become a header
    row (none when the dataset has no names); labels, written verbatim,
    become a trailing column."""
    header = None if dataset.feature_names is None else list(dataset.feature_names)
    rows = dataset.values.tolist()
    if dataset.labels is not None:
        if header is not None:
            header.append(LABEL_COLUMN)
        rows = [[*row, label] for row, label in zip(rows, dataset.labels.astype(str))]
    write_csv(path, header, rows)
