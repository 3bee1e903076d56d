"""Benchmark of the mwkmeans package, driven through `mwk` requests.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Each workload runs in fresh worker processes (worker.py) started from
this checkout's `src/`: a few set-up probes for `setup_s`, one plain run
that sends the units round-robin for `--seconds` for the end-to-end
metrics and, with `--trace 1`, one traced pass of the same units for the
per-layer metrics. A human-readable table goes to stderr; the last line
of stdout is the result as JSON. NOTES.md says
why each workload and metric exists.
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_PROBES = 4  # fresh processes that only set up; the plain run makes a fifth sample
TIME_LIMIT_S = 170.0  # every run ends within this, workers included

END_TO_END = {
    "setup_s": "s",
    "work_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_EXTRA = {
    "client.wall_s": "s",
    "client.work_ms_uncalibrated": "ms",
    "client.calibration_ms": "ms",
    "client.request_s_p50": "s",
    "client.request_s_tail": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "process.user_s": "s",
    "process.sys_s": "s",
    "process.minflt": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "check.golden_max_err": "ratio",
    "failed_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name in PER_LAYER_EXTRA:
        return PER_LAYER_EXTRA[name]
    if name.endswith("_s") or name.startswith("cell_s."):
        return "s"
    if name.endswith("ns_per_cell"):
        return "ns"
    return "count"


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with
    at least 10 samples beyond it. Below 20 samples that percentile
    would not lie above the median, so the maximum is reported."""
    s = sorted(values)
    n = len(s)
    if n >= 20:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def work_ms_by_group(units, calibrated=True):
    """Best-case milliseconds per unit of work in each group (sweep: each
    exponent): the summed best unit times over the summed work. Each
    unit's best time is scaled to the reference machine's speed by its
    best calibration time unless `calibrated` is false. Failed units are
    left out."""
    totals = {}
    for u in units:
        if u["work"]:
            scale = workloads.CALIBRATION_REF_S / u["calibration_s"] if calibrated else 1.0
            seconds, work = totals.get(u["group"], (0.0, 0))
            totals[u["group"]] = (seconds + u["best_s"] * scale, work + u["work"])
    return {g: 1000.0 * seconds / work for g, (seconds, work) in totals.items()}


def work_ms(units, calibrated=True):
    """The mean of work_ms_by_group over the groups; None if no unit
    succeeded."""
    by_group = work_ms_by_group(units, calibrated)
    return statistics.mean(by_group.values()) if by_group else None


def start_worker(mode, name, args, count, workdir, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(args.seed),
        "--units", str(count), "--seconds", str(args.seconds), "--size", args.size,
        "--mode", mode, "--workdir", str(workdir),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left for the {mode} worker of {name}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker of {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name, args, deadline):
    count = workloads.unit_count(name, args.seconds, args.size)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        setups = [
            start_worker("setup", name, args, count, workdir / f"probe{i}", deadline)["setup"]
            for i in range(SETUP_PROBES)
        ]
        plain = start_worker("plain", name, args, count, workdir / "plain", deadline)
        setups.append(plain["setup"])
        traced = start_worker("traced", name, args, count, workdir / "traced", deadline) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it
    return count, setups, plain, traced


def summarise(name, args, count, setups, plain, traced):
    """(info, result) for one workload."""
    latencies = plain["latencies"]
    tail_s, tail_pct, beyond = tail(latencies)
    runs = [plain, traced] if traced else [plain]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    notes = list(plain["notes"]) + (list(traced["notes"]) if traced else [])
    best_work_ms = work_ms(plain["units"])
    correct = not failures and best_work_ms is not None

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(
                (s["import_s"] + s["inputs_s"]) * workloads.CALIBRATION_REF_S / s["calibration_s"] for s in setups
            ),
            "work_ms": best_work_ms,
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        layers = dict(traced["layers"])
        self_total = layers.pop("trace.self_total_s")
        overhead = traced["wall_s"] / (plain["wall_s"] / plain["passes"]) - 1.0
        unattributed = 1.0 - self_total / traced["wall_s"]
        # Self times partition the time inside cli.main, so they must sum
        # to the traced wall time up to the tracing overhead (1 % floor).
        if not 0.0 <= unattributed <= max(abs(overhead), 0.01):
            correct = False
            notes.append(f"layer self times cover {1 - unattributed:.2%} of the traced wall time")
        metrics = {
            "setup.import_s": statistics.median(s["import_s"] for s in setups),
            "setup.inputs_s": statistics.median(s["inputs_s"] for s in setups),
            "client.wall_s": plain["wall_s"],
            "client.work_ms_uncalibrated": work_ms(plain["units"], calibrated=False),
            "client.calibration_ms": 1000.0 * statistics.median(u["calibration_s"] for u in plain["units"]),
            "client.request_s_p50": statistics.median(latencies),
            "client.request_s_tail": tail_s,
            **layers,
            **{f"process.{k}": v for k, v in plain["process"].items()},
            "trace.overhead_frac": overhead,
            "trace.unattributed_frac": unattributed,
            "check.golden_max_err": traced["golden_max_err"],
            "failed_frac": failed / attempted,
        }
        units = {m: layer_unit(m) for m in metrics}
    info = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "units": count,
        "passes": plain["passes"],
        "work_unit": plain["work_unit"],
        "work_ms_by_group": work_ms_by_group(plain["units"]),
        "work_ms_uncalibrated": work_ms(plain["units"], calibrated=False),
        "setup_s_uncalibrated": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
        "request_s_tail": {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond},
        "failed_frac": failed / attempted,
        "threads": plain["threads"],
        "inputs_sha256": plain["inputs_sha256"],
        "fingerprint": plain["fingerprint"],
        "failures": failures[:20],
        "notes": notes,
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return info, result


def print_table(info, result):
    out = sys.stderr
    f = info["fingerprint"]
    print(f"== {info['workload']} (seed {info['seed']}, {info['units']} units x {info['passes']:.3g} passes, "
          f"work = {info['work_unit']}) ==", file=out)
    print(f"  machine: nproc {f['nproc']}, {f['cpu_model']}, Python {f['python']}, numpy {f['numpy']}, "
          f"scipy {f['scipy']}, {f['blas']}, commit {f['git_commit']}", file=out)
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        extra = ""
        if name == "client.request_s_tail":
            t = info["request_s_tail"]
            extra = f"  (p{t['percentile']:.0f} of {t['samples']} requests, {t['beyond']} beyond)"
        print(f"  {name:<32} {value:>14} {m['unit']}{extra}", file=out)
    if "failed_frac" not in result["metrics"]:
        print(f"  {'failed_frac':<32} {info['failed_frac']:>14.6g} ratio", file=out)
    for line in info["failures"] + info["notes"]:
        print(f"  ! {line}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full",
                        help="tiny: a few small requests, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "mwkmeans" / "cli.py").is_file():
        print(f"error: no mwkmeans package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = {}
    for name in names:
        try:
            measured = measure(name, args, deadline)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        info, result = summarise(name, args, *measured)
        print_table(info, result)
        print(json.dumps(info))
        results[name] = result
    if len(names) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
