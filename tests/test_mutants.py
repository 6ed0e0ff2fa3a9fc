"""The mutation table stays in step with the code it mutates.

Running the mutants takes tests/run_mutants.py; these checks only read
files, so a refactor that moves a mutant's text fails here at once.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert (REPO_ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.kills
    for test in mutant.kills:
        path, *scopes = re.sub(r"\[.*\]$", "", test).split("::")
        text = (REPO_ROOT / path).read_text()
        for scope in scopes:
            assert re.search(rf"^\s*(class|def) {scope}\b", text, re.MULTILINE), test
