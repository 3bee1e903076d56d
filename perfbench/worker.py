"""Runs one workload in a fresh process and prints its raw measurements
as one JSON line. Started by run.py; not meant to be run by hand.

Modes:
  setup   import mwkmeans.cli and prepare the inputs, then stop
  plain   set up, then send the units round-robin for --seconds, untraced
  traced  one pass of the same requests with every public function
          wrapped (tracing.py), then one untimed golden-output request

The client is a closed loop: one request at a time, in a fixed order,
through the public entry point `mwkmeans.cli.main`, in-process.
"""
import sys
import time

T_START = time.perf_counter()
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import mwkmeans.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import IterationCounter, Tracer  # noqa: E402

SETUP_CALIBRATIONS = 8  # kernel timings after set-up; the first allocates its arrays

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def request(argv):
    """One `mwk` invocation; returns (exit code or None if it raised,
    stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed benchmark
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def outcome(workload, argv, output, rc, stdout, stderr, golden):
    """Problems with one request's result, its golden error (None when
    there is no golden record for it), and its golden record."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {rc}: {tail[0]}"], None, None
    try:
        problems, record = checks.CHECKS[workload](output, argv, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], None, None
    err = None
    if golden is not None:
        err, golden_problems = checks.compare(record, golden)
        problems += golden_problems
    return problems, err, record


def _timed(fn):
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in a copy that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _digest(plan, workdir):
    """Hash of the inputs: request arguments (paths made relative) and
    every file the set-up wrote."""
    h = hashlib.sha256()
    h.update(json.dumps(plan.passes[0]).replace(str(workdir), "").encode())
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=list(workloads.SIZES))
    parser.add_argument("--mode", required=True, choices=["setup", "plain", "traced"])
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"mwkmeans imported from {cli.__file__}, not from this checkout")

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # A traced run sends one pass: its per-layer totals need no repeats.
    if args.mode == "traced":
        min_passes, max_passes, seconds = 1, 1, 0.0
    else:
        min_passes, max_passes, seconds = workloads.MIN_PASSES, workloads.MAX_PASSES, args.seconds
    plan = workloads.plan(args.workload, args.seed, args.units, args.size, workdir, max_passes)
    t = time.perf_counter()
    for argv in plan.setup:
        rc, _, stderr = request(argv)
        if rc != 0:
            sys.exit(f"set-up request {argv[0]} failed with {rc}: {stderr}")
    setup = {"import_s": T_IMPORTED - T_START, "inputs_s": time.perf_counter() - t}
    # The host's speed just after set-up, to scale setup_s as work_ms is.
    setup["calibration_s"] = min(_timed(workloads.calibration_kernel) for _ in range(SETUP_CALIBRATIONS))
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return
    inputs_sha256 = _digest(plan, workdir)

    tracer = Tracer() if args.mode == "traced" else None
    counter = IterationCounter() if tracer is None and plan.work is None else None
    if tracer is not None:
        tracer.install()
    if counter is not None:
        counter.install()
    # results[r][i], latencies[r][i], iterations[r][i] and calibrations[r][i]
    # for unit i in pass r. Passes go on until `seconds` have passed; the
    # last may stop part way, so some units have one repeat more than others.
    results, latencies, iterations, calibrations = [], [], [], []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    for r, requests in enumerate(plan.passes):
        if r >= min_passes and time.perf_counter() - t0 >= seconds:
            break
        results.append([])
        latencies.append([])
        iterations.append([])
        calibrations.append([])
        for argv in requests:
            if r >= min_passes and time.perf_counter() - t0 >= seconds:
                break
            if tracer is None:
                calibrations[-1].append(_timed(workloads.calibration_kernel))
            before = counter.iterations if counter is not None else None
            t = time.perf_counter()
            results[-1].append(request(argv))
            latencies[-1].append(time.perf_counter() - t)
            after = counter.iterations if counter is not None else None
            iterations[-1].append(None if before is None or after is None else after - before)
    # The requests' wall time: the calibrations between them left out.
    wall_s = time.perf_counter() - t0 - sum(c for cal in calibrations for c in cal)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
    layers = tracer.metrics() if tracer is not None else None
    notes = list(tracer.notes) if tracer is not None else []
    if counter is not None and counter.note:
        notes.append(counter.note)

    use_golden = args.seed == workloads.DEFAULT_SEED and args.size == "full"
    golden = checks.load_golden()[args.workload] if use_golden or tracer is not None else []
    failures, golden_errs, failed = [], [], 0
    units = []
    for i, group in enumerate(plan.groups):
        expected = golden[i] if use_golden and i < len(golden) else None
        first, ok = None, True
        sent = [r for r in range(len(results)) if i < len(results[r])]
        for r in sent:
            argv, output = plan.passes[r][i], plan.outputs[r][i]
            problems, err, record = outcome(args.workload, argv, output, *results[r][i], expected)
            if record is not None and first is None:
                first = record
            elif record is not None:
                problems += [f"pass {r}: {p}" for p in checks.compare(record, first)[1]]
            if plan.work is None and iterations[r][i] != iterations[0][i]:
                problems.append(f"{iterations[r][i]} iterations in pass {r}, {iterations[0][i]} in pass 0")
            failures += [f"unit {i}: {p}" for p in problems]
            failed += bool(problems)
            ok = ok and not problems
            if err is not None:
                golden_errs.append(err)
        units.append({
            "group": group,
            "best_s": min(latencies[r][i] for r in sent),
            "calibration_s": min(calibrations[r][i] for r in sent) if tracer is None else None,
            "work": (plan.work if plan.work is not None else iterations[0][i]) if ok else None,
        })
    attempted = sum(len(lat) for lat in latencies)
    if tracer is not None and not golden_errs:
        # Untimed: unit 0 of the default seed, so that every traced run
        # reports its distance from the golden outputs.
        ref = workloads.plan(args.workload, workloads.DEFAULT_SEED, 1, "full", workdir / "golden", 1)
        (workdir / "golden").mkdir()
        for argv in ref.setup:
            request(argv)
        argv, output = ref.passes[0][0], ref.outputs[0][0]
        problems, err, _ = outcome(args.workload, argv, output, *request(argv), golden[0])
        failures += [f"golden request: {p}" for p in problems]
        failed += bool(problems)
        attempted += 1
        golden_errs += [err] if err is not None else []

    print(json.dumps({
        "setup": setup,
        "attempted": attempted,
        "failed": failed,
        "units": units,
        "work_unit": workloads.WORKLOADS[args.workload].work_unit,
        "latencies": [x for lat in latencies for x in lat],
        "passes": attempted / len(plan.groups),
        "wall_s": wall_s,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "process": {
            "user_s": ru1.ru_utime - ru0.ru_utime,
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "minflt": ru1.ru_minflt - ru0.ru_minflt,
        },
        "threads": threads,
        "failures": failures,
        "golden_max_err": max(golden_errs) if golden_errs else None,
        "layers": layers,
        "notes": notes,
        "inputs_sha256": inputs_sha256,
        "fingerprint": fingerprint(),
    }))


if __name__ == "__main__":
    main()
