"""Self-test of the output checker and smoke test of the benchmark at
tiny sizes (about a minute on 2 cores).

    python3 perfbench/smoke.py

Not named test_*.py on purpose: the repository's pytest run does not
collect it.
"""
import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import checks
import run
import workloads
from worker import ROOT, request

RUN = [sys.executable, "perfbench/run.py"]
SCRATCH = ROOT / ".perfbench_tmp"


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def bench(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=170)


class CheckerSelfTest(unittest.TestCase):
    """A perturbed output must count as failed."""

    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(exist_ok=True)
        cls.dir = Path(tempfile.mkdtemp(prefix="smoke-", dir=SCRATCH))
        cls.outcomes = {}
        for name in workloads.WORKLOADS:
            plan = workloads.plan(name, 11, 1, "tiny", cls.dir / name, 1)
            (cls.dir / name).mkdir()
            for argv in plan.setup:
                request(argv)
            rc, stdout, _ = request(plan.passes[0][0])
            cls.outcomes[name] = (plan.passes[0][0], plan.outputs[0][0], rc, stdout)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def check(self, name, output=None, stdout=None):
        argv, default_output, rc, default_stdout = self.outcomes[name]
        self.assertEqual(rc, 0)
        return checks.CHECKS[name](output or default_output, argv, stdout or default_stdout)

    def perturbed_report(self, change):
        argv, output, _, _ = self.outcomes["wide-p2"]
        report = json.loads(output.read_text())
        change(report["best"])
        path = output.with_name("perturbed.json")
        path.write_text(json.dumps(report))
        return path

    def test_unperturbed_outputs_pass(self):
        for name in workloads.WORKLOADS:
            problems, _ = self.check(name)
            self.assertEqual(problems, [], name)

    def test_scaled_weight_row_fails(self):
        def scale(best):
            best["weights"][0] = [1.01 * w for w in best["weights"][0]]
        problems, _ = self.check("wide-p2", self.perturbed_report(scale))
        self.assertTrue(any("sums to" in p for p in problems), problems)

    def test_assignment_moved_to_empty_cluster_fails(self):
        k = int(checks.flag(self.outcomes["wide-p2"][0], "--k")[0])

        def move(best):
            best["assignments"][0] = k  # a cluster the run left empty
        problems, _ = self.check("wide-p2", self.perturbed_report(move))
        self.assertTrue(problems)

        def empty(best):
            lost = best["assignments"][0]
            best["assignments"] = [(a + 1) % k if a == lost else a for a in best["assignments"]]
        problems, _ = self.check("wide-p2", self.perturbed_report(empty))
        self.assertTrue(any("empty clusters" in p for p in problems), problems)

    def test_rising_trace_fails(self):
        def rise(best):
            best["objective_trace"] = best["objective_trace"] + [2 * best["objective_trace"][-1]]
            best["iterations"] += 1
        problems, _ = self.check("wide-p2", self.perturbed_report(rise))
        self.assertTrue(any("objective rose" in p for p in problems), problems)

    def test_objective_outside_bounds_fails(self):
        def lift(best):
            best["objective"] = 2 * best["bounds"]["upper"] + 1
        problems, _ = self.check("wide-p2", self.perturbed_report(lift))
        self.assertTrue(any("outside" in p for p in problems), problems)

    def test_scaled_experiment_weight_fails(self):
        argv, output, _, _ = self.outcomes["sweep"]
        copy_dir = output.with_name("perturbed-sweep")
        shutil.copytree(output, copy_dir)
        path = copy_dir / "feature_weights.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(1.5 * float(cells[-1]))
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        problems, _ = self.check("sweep", copy_dir)
        self.assertTrue(any("sums to" in p for p in problems), problems)

    def test_failed_verify_check_fails(self):
        stdout = self.outcomes["verify"][3].replace("PASS", "FAIL", 1)
        problems, _ = self.check("verify", stdout=stdout)
        self.assertTrue(problems)

    def test_golden_mismatch_fails(self):
        _, record = self.check("wide-p2")
        self.assertEqual(checks.compare(record, record)[1], [])
        moved = copy.deepcopy(record)
        moved["objectives"][0] *= 1 + 1e-6
        self.assertTrue(checks.compare(record, moved)[1])
        moved = dict(record, assignments_sha256="0" * 64)
        self.assertTrue(checks.compare(record, moved)[1])


class WorkMsTest(unittest.TestCase):
    def test_groups_are_averaged_and_failed_units_skipped(self):
        ref = workloads.CALIBRATION_REF_S
        units = [
            {"group": "1.5", "best_s": 1.0, "calibration_s": ref, "work": 100},
            {"group": "1.5", "best_s": 3.0, "calibration_s": ref, "work": 100},
            {"group": "2", "best_s": 0.2, "calibration_s": 2 * ref, "work": 100},  # host at half speed
            {"group": "2", "best_s": 9.0, "calibration_s": ref, "work": None},  # a failed unit
        ]
        self.assertAlmostEqual(run.work_ms(units), (20.0 + 1.0) / 2)
        self.assertAlmostEqual(run.work_ms(units, calibrated=False), (20.0 + 2.0) / 2)
        self.assertIsNone(run.work_ms([{"group": "", "best_s": 1.0, "calibration_s": ref, "work": None}]))


class TracerTest(unittest.TestCase):
    def test_removed_function_gives_null_metric_and_note(self):
        code = (
            "import json, sys; sys.path[:0] = ['perfbench', 'src']\n"
            "import mwkmeans.cli, mwkmeans.geometry as g\n"
            "del g.minkowski_center_columns\n"
            "from tracing import Tracer\n"
            "t = Tracer(); t.install(); m = t.metrics()\n"
            "print(json.dumps([m['geometry.center_s'], m['geometry.center.calls'], m['engine.assign_s'], t.notes]))"
        )
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        center_s, calls, assign_s, notes = json.loads(proc.stdout)
        self.assertIsNone(center_s)
        self.assertIsNone(calls)
        self.assertEqual(assign_s, 0.0)
        self.assertTrue(any("minkowski_center_columns not found" in n for n in notes), notes)


# Layers each workload must reach through names other modules imported.
TRACED_NONZERO = {
    "sweep": ["geometry.center.calls", "core.dispersions_s", "weighting.update_weights.rows",
              "engine.runs", "data.generate_s", "cell_s.p1.5"],
    "wide-p2": ["data.load_csv.cells", "engine.assign.cells", "engine.runs", "cell_s.p2"],
    "verify": ["weighting.update_weights.rows", "theory.bounds_s", "verify.self_s"],
}


class BenchmarkSmokeTest(unittest.TestCase):
    """Every named metric is printed with its unit, the seed is honoured
    and a held-out seed runs."""

    def run_ok(self, *args):
        proc = bench(*args)
        lines = proc.stdout.strip().splitlines()
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return json.loads(lines[-2]), result, proc.stderr

    def test_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                common = ("--workload", name, "--seconds", "1", "--size", "tiny")
                info, result, stderr = self.run_ok(*common, "--seed", "5", "--trace", "0")
                self.assertEqual(
                    {m: v["unit"] for m, v in result["metrics"].items()}, declared("end_to_end")
                )
                for metric, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, metric)
                    self.assertIn(f"{metric} ", stderr)

                traced_info, traced, _ = self.run_ok(*common, "--seed", "5", "--trace", "1")
                self.assertEqual(
                    {m: v["unit"] for m, v in traced["metrics"].items()}, declared("per_layer")
                )
                self.assertTrue(all(v["value"] is not None for v in traced["metrics"].values()))
                for metric in TRACED_NONZERO[name]:
                    self.assertGreater(traced["metrics"][metric]["value"], 0, metric)
                self.assertEqual(traced_info["inputs_sha256"], info["inputs_sha256"])

                held_out, _, _ = self.run_ok(*common, "--seed", "6", "--trace", "0")
                self.assertNotEqual(held_out["inputs_sha256"], info["inputs_sha256"])

    def test_fails_without_the_program(self):
        SCRATCH.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=SCRATCH))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
