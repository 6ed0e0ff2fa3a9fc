"""The mutation table stays in step with the code it mutates.

Running the mutants takes tests/run_mutants.py; these checks only read
files, so a refactor that moves a mutant's text fails here at once.  Each
test that a mutant or the step-differential workflow names must exist too,
so renaming one fails here, not on the mutant run or the weekly run.
The runner's own verdicts are checked on a stub command that sleeps.
"""

import re
import sys
import time
from pathlib import Path

import pytest

import run_mutants
from mutants import MUTANTS

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert (REPO_ROOT / mutant.path).read_text().count(mutant.old) == 1


def assert_test_exists(test):
    """The file of a pytest node id holds each class and function it names."""
    path, *scopes = re.sub(r"\[.*\]$", "", test).split("::")
    text = (REPO_ROOT / path).read_text()
    for scope in scopes:
        assert re.search(rf"^\s*(class|def) {scope}\b", text, re.MULTILINE), test


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.kills
    for test in mutant.kills:
        assert_test_exists(test)


STEP_DIFFERENTIAL = REPO_ROOT / ".github" / "workflows" / "step-differential.yml"
WORKFLOW_TESTS = re.findall(
    r"tests/\w+\.py(?:::\w+)*", STEP_DIFFERENTIAL.read_text()
)


def test_the_step_differential_workflow_names_tests():
    assert "tests/test_sim_differential.py" in WORKFLOW_TESTS
    assert "tests/test_simplex.py::TestAgainstScipy" in WORKFLOW_TESTS
    assert "tests/test_replay.py" in WORKFLOW_TESTS


def test_the_step_differential_workflow_starts_on_each_test_file_it_runs():
    # a change to a test file that only this job runs must start the job
    text = STEP_DIFFERENTIAL.read_text()
    paths = re.findall(r"^ +- (\S+)$", text.split("schedule:")[0], re.MULTILINE)
    steps = re.findall(r"^ +run: (.*)$", text, re.MULTILINE)
    run_files = {path for step in steps for path in re.findall(r"tests/\w+\.py", step)}
    assert run_files and run_files <= set(paths), sorted(run_files - set(paths))


@pytest.mark.parametrize("test", sorted(set(WORKFLOW_TESTS)))
def test_each_test_the_step_differential_workflow_names_exists(test):
    # the weekly job is the only run of these node ids; a renamed test
    # would otherwise fail there, not on the change that renamed it
    assert_test_exists(test)


# a stub that sleeps where pytest would run, in a child that holds the
# output pipe too: only killing the whole process group ends the run
_SLEEPER = [
    sys.executable, "-c",
    "import subprocess, sys, time; "
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
    "time.sleep(60)",
]


def test_a_run_past_its_bound_is_stopped_and_counts_as_killed(monkeypatch, tmp_path):
    monkeypatch.setattr(run_mutants, "PYTEST", _SLEEPER)
    start = time.monotonic()
    outcomes = run_mutants._outcomes(tmp_path, ["tests/test_x.py::test_x"], timeout=0.5)
    assert outcomes is None
    assert time.monotonic() - start < 10.0
    assert run_mutants._verdict(MUTANTS[0], outcomes) == ("killed (timeout)", [])


def test_the_bound_follows_the_clean_run():
    mutant = MUTANTS[0]
    durations = {test: 2.0 for test in mutant.kills}
    bound = run_mutants._bound(mutant, durations | {"tests/other.py::test": 99.0}, 1.5)
    expected = run_mutants.SLOWDOWN * (1.5 + 2.0 * len(mutant.kills)) + run_mutants.GRACE
    assert bound == expected


def test_a_named_test_that_passes_is_a_survival():
    mutant = MUTANTS[0]
    outcomes = dict.fromkeys(mutant.kills, "FAILED") | {mutant.kills[-1]: "PASSED"}
    assert run_mutants._verdict(mutant, outcomes) == ("SURVIVED", [mutant.kills[-1]])
    assert run_mutants._verdict(mutant, dict.fromkeys(mutant.kills, "ERROR")) == ("killed", [])
