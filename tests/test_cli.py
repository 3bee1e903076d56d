import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mwkmeans
from mwkmeans import cli, load_csv, save_csv, validate_dataset
from mwkmeans.cli import main


@pytest.fixture
def tiny_blobs_csv(tmp_path):
    rng = np.random.default_rng(0)
    values = np.vstack([rng.normal(0, 0.1, (3, 2)), rng.normal(5, 0.1, (3, 2))])
    path = tmp_path / "blobs.csv"
    save_csv(validate_dataset(values), path)
    return path


class TestCluster:
    def test_smoke(self, tiny_blobs_csv, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "cluster", "--input", str(tiny_blobs_csv), "--k", "2", "--p", "2",
            "--restarts", "3", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        weights = np.array(report["best"]["weights"])
        assert weights.shape == (2, 2)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        assert 0.0 <= report["best"]["normalised_objective"] <= 1.0

    def test_k_zero_is_usage_error(self, tiny_blobs_csv, tmp_path):
        code = main([
            "cluster", "--input", str(tiny_blobs_csv), "--k", "0",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_p_one_is_usage_error(self, tiny_blobs_csv, tmp_path, capsys):
        code = main([
            "cluster", "--input", str(tiny_blobs_csv), "--k", "2", "--p", "1.0",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "p" in capsys.readouterr().err

    def test_p_above_solver_ceiling_is_usage_error(self, tiny_blobs_csv, tmp_path, capsys):
        code = main([
            "cluster", "--input", str(tiny_blobs_csv), "--k", "2", "--p", "2000",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "1023" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_nan_tol_is_usage_error(self, tiny_blobs_csv, tmp_path, capsys):
        code = main([
            "cluster", "--input", str(tiny_blobs_csv), "--k", "2", "--p", "1.5",
            "--tol", "nan", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        assert "tol_objective" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_missing_input_is_io_error(self, tmp_path):
        code = main([
            "cluster", "--input", str(tmp_path / "absent.csv"), "--k", "2",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 3

    def test_malformed_csv_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n5.0,6.0\n")
        code = main(["cluster", "--input", str(path), "--k", "2", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "line 2, column 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("content", [b"a,b\n1,2,3\n4,5,6\n", b"1,2\n3,\xff4\n5,6\n"])
    def test_bad_header_width_or_undecodable_byte_is_io_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code = main(["cluster", "--input", str(path), "--k", "2", "--out", str(tmp_path / "r.json")])
        assert code == 3
        assert "error: line" in capsys.readouterr().err


def test_json_is_written_as_json_dump_writes_it(tmp_path):
    """One write of json.dumps gives the bytes json.dump gives."""
    payload = {"b": [1.5, -0.0, float("nan"), 1e300], "a": {"z": "x\u00e9\n", "n": None}, "c": [[]]}
    path = tmp_path / "r.json"
    cli._write_json(path, payload)
    with open(tmp_path / "expected.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert path.read_bytes() == (tmp_path / "expected.json").read_bytes()


class TestGenerate:
    def test_reference_defaults(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["generate", "--out", str(out)]) == 0
        dataset = load_csv(out, has_labels=True)
        assert dataset.values.shape == (1000, 8)
        assert (tmp_path / "data.csv.spec.json").exists()

    def test_repeat_seed_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["generate", "--seed", "5", "--n-points", "50", "--out", str(a)])
        main(["generate", "--seed", "5", "--n-points", "50", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_points_is_usage_error(self, tmp_path):
        code = main(["generate", "--n-points", "2", "--clusters", "3", "--out", str(tmp_path / "d.csv")])
        assert code == 2

    @pytest.mark.parametrize("args", [["--center-box", "0", "inf"], ["--cluster-std", "nan"], ["--cluster-std", "inf"]])
    def test_non_finite_spec_is_usage_error(self, tmp_path, capsys, args):
        code = main(["generate", *args, "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


class TestExperiment:
    def test_single_cell_sweep(self, tmp_path):
        out_dir = tmp_path / "exp"
        code = main([
            "experiment", "--datasets", "1", "--restarts", "1", "--p", "2",
            "--n-points", "60", "--out-dir", str(out_dir),
        ])
        assert code == 0
        obj_lines = (out_dir / "normalised_objective.csv").read_text().splitlines()
        assert len(obj_lines) == 2  # header + exactly one run
        summary = json.loads((out_dir / "summary.json").read_text())
        assert list(summary["mean_normalised_objective"]) == ["2"]
        # emitted tables are themselves loadable datasets
        load_csv(out_dir / "sorted_weights.csv")
        load_csv(out_dir / "feature_weights.csv")

    def test_reproducible_bytes(self, tmp_path):
        args = ["experiment", "--datasets", "1", "--restarts", "2", "--p", "1.5", "2",
                "--n-points", "60", "--seed", "3"]
        main(args + ["--out-dir", str(tmp_path / "a")])
        main(args + ["--out-dir", str(tmp_path / "b")])
        for name in ["sorted_weights.csv", "feature_weights.csv", "normalised_objective.csv", "summary.json"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("datasets", ["0", "-1"])
    def test_no_datasets_is_usage_error(self, tmp_path, capsys, datasets):
        out_dir = tmp_path / "out"
        code = main(["experiment", "--datasets", datasets, "--out-dir", str(out_dir)])
        assert code == 2
        assert "--datasets" in capsys.readouterr().err
        assert not out_dir.exists()


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "triple-equality" in out

    def test_larger_trial_count(self):
        assert main(["verify", "--trials", "300"]) == 0

    def test_injected_fault_detected(self, capsys):
        assert main(["verify", "--trials", "20", "--inject-fault", "ratio-law"]) == 1
        captured = capsys.readouterr()
        assert "ratio-law" in captured.err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_is_usage_error(self, capsys, trials):
        # each check passed vacuously, so verify printed ten PASS lines
        assert main(["verify", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials" in captured.err and "PASS" not in captured.out

    def test_unknown_injected_fault_is_usage_error(self, capsys):
        # a misspelt check name sabotaged nothing, and every check passed
        assert main(["verify", "--trials", "20", "--inject-fault", "ratio-lwa"]) == 2
        captured = capsys.readouterr()
        assert "--inject-fault" in captured.err and "PASS" not in captured.out


class TestImport:
    def test_cli_import_leaves_scipy_out(self):
        """numpy is the only runtime dependency: importing the CLI in a
        fresh interpreter must not load scipy."""
        src = str(Path(mwkmeans.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, mwkmeans.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once_per_process(self, monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
        cli._parser.cache_clear()
        try:
            assert main([]) == 2
            assert main(["frobnicate"]) == 2
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()
        assert build() is not build()  # build_parser still returns a fresh parser
