import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import record_golden_verify
import verify_oracle
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


def _break_weight_laws(monkeypatch):
    """Make every trial's d and w break each weight law in rows 1 and 2,
    and in row 1 the pairwise law for feature 0 against each other
    feature; returns d and w."""
    d = np.array([[8.0, 4.0, 2.0, 1.0]] * 3)
    w = np.array([[1.0, 2.0, 4.0, 8.0], [8.0, 4.0, 2.0, 1.0], [12.0, 1.0, 1.0, 1.0]]) / 15.0
    monkeypatch.setattr(verify, "_random_dispersions", lambda rng: d.copy())
    monkeypatch.setattr(verify, "_random_p", lambda rng: 2.0)
    monkeypatch.setattr(verify.weighting, "update_weights", lambda d, p: w.copy())
    return d, w


def test_first_failing_row_and_pair_is_reported(monkeypatch):
    # each check names row 1, and the pairwise one its first pair (u, v) = (0, 1)
    d, w = _break_weight_laws(monkeypatch)
    details = {r.name: r.detail for r in verify.run_all(trials=1)}
    assert details["order-reversal"] == f"row 1: {d[1]} vs {w[1]}"
    assert details["pairwise-suppression"] == "w=5.333e-01 exceeds 5.000e-01 * 2.667e-01"
    assert details["global-suppression"] == "w=5.333e-01 exceeds 1.429e-01"


def test_shared_stream_stops_once_its_checks_have_failed(monkeypatch):
    # a negative objective breaks the triple equality and the bounds at
    # trial 1 as well, so the shared stream draws one instance of 50
    _break_weight_laws(monkeypatch)
    objectives = []
    monkeypatch.setattr(verify.theory, "objective_via_dispersions", lambda d, p: objectives.append(p) or -1.0)
    results = verify.run_all(trials=50)
    assert [r.name for r in results if not r.passed] == [
        "triple-equality", "bound-containment", "ratio-law", "order-reversal",
        "pairwise-suppression", "global-suppression",
    ]
    assert len(objectives) == 1


def test_shared_instances_are_read_only(monkeypatch):
    sent = []
    send = verify._send
    monkeypatch.setattr(verify, "_send", lambda check, trial: sent.append(trial) or send(check, trial))
    verify.run_all(trials=3)
    d, p, w, objective = sent[0]
    assert not d.flags.writeable and not w.flags.writeable
    assert len(sent) == 3 * 5 + 5  # each trial to the five shared checks, then the end


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.sampled_from([None, *verify.CHECK_NAMES]),
)
def test_run_all_equals_frozen_oracle(seed, trials, inject_fault):
    """The checks fed one shared instance per trial give the results of
    the checks that each drew their own (tests/verify_oracle.py): the
    same verdicts, and the same first failing trial, row and pair."""
    assert verify.run_all(trials, seed, inject_fault) == verify_oracle.run_all(trials, seed, inject_fault)


def test_memory_does_not_grow_with_trials():
    # the shared instances are drawn one trial at a time, never listed
    verify.run_all(trials=5)
    peaks = []
    for trials in (200, 2000):
        tracemalloc.start()
        try:
            verify.run_all(trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 32 * 1024, peaks


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
