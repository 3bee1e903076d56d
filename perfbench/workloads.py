"""The benchmark's workloads: which `mwk` requests a run sends, in which
order, and which inputs it prepares before timing starts.

Every input is derived from the workload seed alone, so the same seed
gives the same requests. A run is a list of short, distinct requests
(its units) sent over and over, round-robin, until `--seconds` have
passed, so that the repeats of a unit are seconds apart. The number of
units is sized from `--seconds` and the unit cost measured on the
reference machine (2-core Xeon, Python 3.11, numpy 2.4.6, scipy 1.17.1)
so that a run makes about TARGET_PASSES passes; both commits of a
comparison send the same units.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Seed of the recorded golden outputs (golden.json).
DEFAULT_SEED = 0
# Default length of a run, as in BENCHMARK.json.
RUN_SECONDS = 35
# Passes over the units that a run of --seconds makes on the reference
# machine; each unit's best time over its passes is the one reported.
TARGET_PASSES = 8
# A run makes at least MIN_PASSES passes, however long they take, and at
# most MAX_PASSES.
MIN_PASSES = 2
MAX_PASSES = 64

# calibration_kernel's best time on the reference machine, in seconds.
CALIBRATION_REF_S = 0.0032

# The reference protocol of the paper's experiment.
SWEEP_P = ("1.1", "1.5", "2", "5")


@dataclass(frozen=True)
class Workload:
    work_unit: str  # what `work_ms` divides by: engine iterations or verify trials
    unit_s: float  # measured cost of one request at full size
    units_per_group: int  # units are sized in whole groups (sweep: one per exponent)


# Why each workload exists: NOTES.md and BENCHMARK.json.
WORKLOADS = {
    "sweep": Workload("iterations", 0.3, len(SWEEP_P)),
    "wide-p2": Workload("iterations", 0.55, 1),
    "verify": Workload("trials", 0.19, 1),
}


@dataclass(frozen=True)
class Size:
    """Problem sizes; `full` is what the benchmark measures, `tiny` is
    for the smoke test."""

    sweep_n: int
    sweep_restarts: int
    wide_n: int
    wide_features: int  # informative, and as many noise features
    wide_k: int
    verify_trials: int
    units: int | None  # None: sized from --seconds


SIZES = {
    "full": Size(1000, 2, 5000, 8, 10, 50, None),
    "tiny": Size(60, 1, 200, 2, 3, 5, 4),
}


@dataclass(frozen=True)
class Plan:
    """Set-up requests (untimed inputs) and the timed requests of one
    run. `passes[r][i]` is unit i in pass r, writing to `outputs[r][i]`
    (None: the output is the request's stdout). `groups[i]` names the
    exponent of a sweep unit, "" elsewhere. `work` is the work each
    request completes, None when it is counted as it runs (iterations)."""

    setup: list[list[str]]
    passes: list[list[list[str]]]
    outputs: list[list[Path | None]]
    groups: list[str]
    work: int | None


def unit_count(workload: str, seconds: float, size: str) -> int:
    s = SIZES[size]
    if s.units is not None:
        return s.units
    w = WORKLOADS[workload]
    groups = max(1, round(seconds / (TARGET_PASSES * w.unit_s * w.units_per_group)))
    return groups * w.units_per_group


def plan(workload: str, seed: int, units: int, size: str, workdir: Path, passes: int) -> Plan:
    """The requests of at most `passes` passes over the units. Unit i
    depends only on (seed, i), so a longer run extends a shorter one."""
    s = SIZES[size]
    base = seed * 1000
    if workload == "sweep":
        # Unit i: dataset i // 4 of the protocol at exponent i % 4.
        groups = [SWEEP_P[i % len(SWEEP_P)] for i in range(units)]
        outputs = [[workdir / f"sweep-{r}-{i}" for i in range(units)] for r in range(passes)]
        requests = [
            [
                [
                    "experiment", "--datasets", "1", "--seed", str(base + i // len(SWEEP_P)),
                    "--n-points", str(s.sweep_n), "--informative", "4", "--noise", "4",
                    "--clusters", "3", "--k", "3", "--restarts", str(s.sweep_restarts),
                    "--p", p, "--out-dir", str(out),
                ]
                for i, (p, out) in enumerate(zip(groups, outs))
            ]
            for outs in outputs
        ]
        return Plan([], requests, outputs, groups, None)
    if workload == "wide-p2":
        csv = workdir / "wide.csv"
        setup = [[
            "generate", "--n-points", str(s.wide_n), "--informative", str(s.wide_features),
            "--noise", str(s.wide_features), "--clusters", str(s.wide_k),
            "--seed", str(seed), "--out", str(csv),
        ]]
        outputs = [[workdir / f"wide-{r}-{i}.json" for i in range(units)] for r in range(passes)]
        requests = [
            [
                [
                    "cluster", "--input", str(csv), "--has-labels", "--normalise",
                    "--k", str(s.wide_k), "--p", "2", "--restarts", "1",
                    "--seed", str(base + i), "--out", str(out),
                ]
                for i, out in enumerate(outs)
            ]
            for outs in outputs
        ]
        return Plan(setup, requests, outputs, [""] * units, None)
    if workload == "verify":
        requests = [
            [["verify", "--trials", str(s.verify_trials), "--seed", str(base + i)] for i in range(units)]
        ] * passes
        return Plan([], requests, [[None] * units] * passes, [""] * units, s.verify_trials)
    raise ValueError(f"unknown workload {workload!r}")


_calibration_arrays = None


def calibration_kernel():
    """A fixed piece of Python, small-array and 5000 x 16 array numpy
    work, the kinds of work the program's requests do, timed just before
    each request. The host slows and speeds up both alike (NOTES.md,
    "Steadiness"), so a unit's best request time over its best
    calibration time, times CALIBRATION_REF_S, is its time at the
    reference machine's speed. The large arrays are allocated once, on
    the first call, and never freed, so that later calls neither fault
    in pages nor move glibc's mmap threshold under the program."""
    global _calibration_arrays
    import numpy as np

    if _calibration_arrays is None:
        x = np.linspace(0.0, 1.0, 5000 * 16).reshape(5000, 16)
        _calibration_arrays = (x, np.empty_like(x))
    x, buf = _calibration_arrays
    total = 0
    for i in range(15_000):
        total += i * i
    a = np.arange(8.0)
    for _ in range(400):
        a = np.abs(a - 0.5) * 1.0001
    for c in range(8):
        np.subtract(x, 0.1 * c, out=buf)
        np.abs(buf, out=buf)
        np.square(buf, out=buf)
        total += float(buf.sum(axis=1).min())
    return total, a
