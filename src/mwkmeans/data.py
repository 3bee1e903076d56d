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
        if self.cluster_std < 0:
            raise InvalidSpecError("cluster_std must be nonnegative")
        if not self.center_box[0] < self.center_box[1]:
            raise InvalidSpecError("center_box must be a nonempty interval")


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
    informative = centers[labels] + spec.cluster_std * offsets
    noise = np.random.default_rng(s_noise).uniform(0.0, 1.0, (spec.n_points, spec.n_noise))
    values = np.hstack([informative, noise])
    names = [f"f{v}" for v in range(spec.n_informative)] + [
        f"noise{v}" for v in range(spec.n_noise)
    ]
    return Dataset(values=values, feature_names=names, labels=labels), centers


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
    normalised = (x - means) / ranges
    stats = [
        {"feature": v, "mean": float(means[v]), "min": float(mins[v]), "max": float(maxs[v])}
        for v in range(x.shape[1])
    ]
    out = Dataset(values=normalised, feature_names=dataset.feature_names, labels=dataset.labels)
    return out, stats


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


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _raise_first_bad_cell(rows, width: int, n_data: int, first_line: int) -> None:
    """Raise CsvParseError at the first malformed cell in file order: a
    row of the wrong width, or a data cell that float() rejects."""
    for line, row in enumerate(rows, start=first_line):
        if len(row) != width:
            raise CsvParseError(line, 0, f"expected {width} cells, got {len(row)}")
        for col, tok in enumerate(row[:n_data]):
            if not _is_number(tok):
                raise CsvParseError(line, col, f"not a number: {tok!r}")


def load_csv(path, has_labels: bool = False) -> Dataset:
    """Read a dataset written by save_csv (or any numeric CSV).

    A first row with any non-numeric feature cell is treated as a
    header. With has_labels=True the last column is split off as labels:
    integers when every label parses as one, otherwise the label strings;
    a label cell never makes a row a header.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise CsvParseError(1, 0, "file is empty")
    header = None
    if any(not _is_number(tok) for tok in (rows[0][:-1] if has_labels else rows[0])):
        header = rows[0]
        rows = rows[1:]
        if not rows:
            raise CsvParseError(2, 0, "header without data rows")
    width = len(rows[0])
    n_data = width - 1 if has_labels else width
    # row[:-1] keeps a row of the wrong width ragged, so numpy rejects it
    cells = [row[:-1] for row in rows] if has_labels else rows
    try:
        # numpy converts each str with float() itself, so it accepts and
        # rejects exactly the tokens float() does
        values = np.array(cells, dtype=float)
    except ValueError:
        _raise_first_bad_cell(rows, width, n_data, 2 if header is not None else 1)
        raise
    labels = None
    if has_labels:
        tokens = [row[-1] for row in rows]
        try:
            labels = np.array(tokens, dtype=int)
        except (ValueError, OverflowError):
            labels = np.array(tokens)
    names = header[:n_data] if header is not None else None
    return Dataset(values=values, feature_names=names, labels=labels)
