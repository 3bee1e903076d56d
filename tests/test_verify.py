import json

import numpy as np
import pytest

import record_golden_verify
from mwkmeans import verify
from mwkmeans.errors import InvalidConfigError


@pytest.mark.parametrize("trials", [0, -3])
def test_no_trials_rejected(trials):
    # each check would pass vacuously
    with pytest.raises(InvalidConfigError, match="trials"):
        verify.run_all(trials=trials)


def test_unknown_fault_rejected():
    # a misspelt check name would sabotage nothing
    with pytest.raises(InvalidConfigError, match="nope"):
        verify.run_all(trials=5, inject_fault="nope")


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_each_named_fault_fails_its_check_alone(name):
    results = verify.run_all(trials=20, inject_fault=name)
    assert [r.name for r in results if not r.passed] == [name]


def test_first_failing_row_and_pair_is_reported(monkeypatch):
    # rows 1 and 2 both break every weight law, and in row 1 feature 0
    # breaks the pairwise law against each other feature: each check
    # names row 1, and the pairwise one its first pair (u, v) = (0, 1)
    d = np.array([[8.0, 4.0, 2.0, 1.0]] * 3)
    w = np.array([[1.0, 2.0, 4.0, 8.0], [8.0, 4.0, 2.0, 1.0], [12.0, 1.0, 1.0, 1.0]]) / 15.0
    monkeypatch.setattr(verify, "_random_dispersions", lambda rng: d.copy())
    monkeypatch.setattr(verify, "_random_p", lambda rng: 2.0)
    monkeypatch.setattr(verify.weighting, "update_weights", lambda d, p: w.copy())
    rng = np.random.default_rng(0)
    assert verify.check_order_reversal(rng, 1).detail == f"row 1: {d[1]} vs {w[1]}"
    assert verify.check_pairwise_suppression(rng, 1).detail == "w=5.333e-01 exceeds 5.000e-01 * 2.667e-01"
    assert verify.check_global_suppression(rng, 1).detail == "w=5.333e-01 exceeds 1.429e-01"


GOLDEN = json.loads(record_golden_verify.GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", record_golden_verify.PASS_SEEDS)
def test_passing_output_equals_golden(seed):
    # the full stdout, byte for byte: each PASS line and its detail
    code, out = record_golden_verify.verify_stdout(record_golden_verify.pass_argv(seed))
    assert code == 0
    assert out == GOLDEN["passing"][str(seed)]


@pytest.mark.parametrize("name", verify.CHECK_NAMES)
def test_fault_output_equals_golden(name):
    # the same first failing trial, row and pair, with the same message
    code, out = record_golden_verify.verify_stdout(record_golden_verify.fault_argv(name))
    assert code == 1
    assert out == GOLDEN["faults"][name]
