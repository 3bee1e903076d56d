import pytest

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
