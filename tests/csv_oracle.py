"""The CSV writer as it was before write_csv streamed its rows, kept
verbatim: every cell becomes a str in Python, and csv.writer writes all
rows. tests/test_csv_writer.py checks the streaming writer against it
byte for byte."""
from __future__ import annotations

import csv

from mwkmeans import Dataset

LABEL_COLUMN = "label"


def write_csv(path, header, rows) -> None:
    """Write one CSV table: the header row (if not None), then the rows.
    Float cells get 17 significant digits (enough for an exact round
    trip); every other cell is written with str."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        writer.writerows(
            [format(c, ".17g") if isinstance(c, float) else str(c) for c in row] for row in rows
        )


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
