"""Command-line interface.

Subcommands:
  cluster     run weighted clustering on a CSV file, write a JSON report
  generate    write a synthetic labelled dataset as CSV (+ sidecar spec)
  experiment  sweep datasets x exponents x restarts and emit plot data
  verify      run the randomised self-checks of the analytical layer

Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numeric or
bound violation.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .core import MwkConfig
from .data import SyntheticSpec, generate, load_csv, range_normalise, save_csv, write_csv
from .engine import run_restarts
from .errors import CsvParseError, InvalidConfigError, InvalidSpecError, MwkError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

DEFAULT_P_VALUES = [1.1, 1.5, 2.0, 5.0]


def _report_to_dict(report) -> dict:
    state = report.final_state
    return {
        "assignments": state.assignments.tolist(),
        "centroids": state.centroids.tolist(),
        "weights": state.weights.tolist(),
        "objective": state.objective,
        "objective_trace": list(report.objective_trace),
        "dispersions": report.dispersions.d.tolist(),
        "bounds": {"lower": report.bounds[0], "upper": report.bounds[1]}
        if report.bounds is not None
        else None,
        "normalised_objective": report.normalised_objective,
        "iterations": report.iterations,
        "converged": report.converged,
        "repair_iterations": list(report.repair_iterations),
    }


def _write_json(path, payload) -> None:
    # one write: json.dump with an indent writes chunk by chunk
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _spec(args, seed: int) -> SyntheticSpec:
    return SyntheticSpec(
        n_points=args.n_points,
        n_informative=args.informative,
        n_noise=args.noise,
        k_true=args.clusters,
        seed=seed,
        cluster_std=args.cluster_std,
        center_box=tuple(args.center_box),
    )


def _config(args, p: float, seed: int) -> MwkConfig:
    return MwkConfig(
        k=args.k,
        p=p,
        tol_objective=args.tol,
        max_iter=args.max_iter,
        seed=seed,
        restarts=args.restarts,
    )


def cmd_cluster(args) -> int:
    dataset = load_csv(args.input, has_labels=args.has_labels)
    if args.normalise:
        dataset, _ = range_normalise(dataset)
    config = _config(args, args.p, args.seed)
    best, reports = run_restarts(dataset, config)
    payload = {
        "config": dataclasses.asdict(config),
        "best": _report_to_dict(best),
        "all_objectives": [r.final_state.objective for r in reports],
    }
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = _spec(args, args.seed)
    dataset, _ = generate(spec)
    save_csv(dataset, args.out)
    sidecar = dict(dataclasses.asdict(spec), center_box=list(spec.center_box))
    _write_json(str(args.out) + ".spec.json", sidecar)
    return EXIT_OK


def cmd_experiment(args) -> int:
    """Sweep datasets x exponents x restarts; every table is ordered by
    (dataset, p, restart), so a fixed --seed gives the same bytes."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    weight_rows = []  # (dataset, p, cluster, rank, weight); cluster -1 = mean over clusters
    feature_rows = []  # (dataset, p, cluster, feature, weight), unsorted
    objective_rows = []  # (dataset, p, run, value)
    for d_idx in range(args.datasets):
        dataset, _ = generate(_spec(args, args.seed + d_idx))
        dataset, _ = range_normalise(dataset)
        for p in args.p:
            config = _config(args, p, args.seed + 1000 * (d_idx + 1))
            best, reports = run_restarts(dataset, config)
            w = best.final_state.weights
            ranked = np.sort(w, axis=1)[:, ::-1]
            feature_rows += [(d_idx, p, l, v, w[l, v]) for l, v in np.ndindex(w.shape)]
            weight_rows += [(d_idx, p, l, rank, ranked[l, rank]) for l, rank in np.ndindex(w.shape)]
            weight_rows += [(d_idx, p, -1, rank, x) for rank, x in enumerate(ranked.mean(axis=0))]
            objective_rows += [(d_idx, p, i, r.normalised_objective) for i, r in enumerate(reports)]

    write_csv(out_dir / "sorted_weights.csv", ["dataset", "p", "cluster", "rank", "weight"], weight_rows)
    write_csv(out_dir / "feature_weights.csv", ["dataset", "p", "cluster", "feature", "weight"], feature_rows)
    write_csv(out_dir / "normalised_objective.csv", ["dataset", "p", "run", "value"], objective_rows)
    means = {p: np.mean([value for _, q, _, value in objective_rows if q == p]) for p in args.p}
    summary = {
        "n_datasets": args.datasets,
        "restarts": args.restarts,
        "k": args.k,
        "p_values": list(args.p),
        "seed": args.seed,
        "mean_normalised_objective": {f"{p:.17g}": float(mean) for p, mean in means.items()},
    }
    _write_json(out_dir / "summary.json", summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify_mod.run_all(trials=args.trials, seed=args.seed, inject_fault=args.inject_fault)
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  {r.detail}" if r.detail else ""
        print(f"{status}  {r.name:<{width}}{detail}")
    if failed:
        print(f"{len(failed)} check(s) failed, first: {failed[0].name}", file=sys.stderr)
        return 1
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_generate_flags(sub):
    sub.add_argument("--n-points", type=int, default=1000)
    sub.add_argument("--informative", type=int, default=4)
    sub.add_argument("--noise", type=int, default=4)
    sub.add_argument("--clusters", type=int, default=3, help="number of generating components")
    sub.add_argument("--cluster-std", type=float, default=1.0)
    sub.add_argument("--center-box", type=float, nargs=2, default=[-2.0, 2.0], metavar=("LO", "HI"))
    sub.add_argument("--seed", type=int, default=0)
    # argparse reads an argument as a negative number, not an option, only
    # in the forms -<digits> and -<digits>.<digits>; take the exponent
    # forms too, so that "--center-box -1e3 1e3" parses (no option here
    # looks like a number). This replaces a private attribute that
    # argparse reads in Python 3.10 through 3.13; should a later argparse
    # rename it, the assignment does nothing, and
    # tests/test_cli.py::TestGenerate::test_center_box_in_exponent_form fails
    sub._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_run_flags(sub):
    sub.add_argument("--restarts", type=int, default=20)
    sub.add_argument("--tol", type=float, default=MwkConfig.tol_objective)
    sub.add_argument("--max-iter", type=int, default=MwkConfig.max_iter)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mwk", description="Minkowski weighted k-means")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="cluster a CSV dataset")
    p_cluster.add_argument("--input", required=True)
    p_cluster.add_argument("--k", type=int, required=True)
    p_cluster.add_argument("--p", type=float, default=2.0)
    p_cluster.add_argument("--seed", type=int, default=MwkConfig.seed)
    _add_run_flags(p_cluster)
    p_cluster.add_argument("--out", required=True)
    p_cluster.add_argument("--has-labels", action="store_true", help="last CSV column is a label")
    p_cluster.add_argument("--normalise", action="store_true", help="range-normalise before clustering")
    p_cluster.set_defaults(func=cmd_cluster)

    p_generate = sub.add_parser("generate", help="generate a synthetic dataset")
    _add_generate_flags(p_generate)
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)

    p_exp = sub.add_parser("experiment", help="dataset x exponent x restart sweep")
    _add_generate_flags(p_exp)
    p_exp.add_argument("--datasets", type=_positive_int, default=10)
    p_exp.add_argument("--p", type=float, nargs="+", default=DEFAULT_P_VALUES)
    p_exp.add_argument("--k", type=int, default=3)
    _add_run_flags(p_exp)
    p_exp.add_argument("--out-dir", required=True)
    p_exp.set_defaults(func=cmd_experiment)

    p_verify = sub.add_parser("verify", help="run the analytical self-checks")
    p_verify.add_argument("--trials", type=_positive_int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--inject-fault", choices=verify_mod.CHECK_NAMES, help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parse_args leaves
    a parser as it was, and building one costs about 1 ms."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (InvalidConfigError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CsvParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MwkError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
