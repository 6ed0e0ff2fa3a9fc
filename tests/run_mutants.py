"""Check that the tests kill every mutant in tests/mutants.py.

For each mutant this copies src/ and tests/ to a temporary directory (the
rest of the repository is linked in, read-only), replaces the mutant's one
piece of text, and runs the tests it names with hypothesis's shrink phase
off.  A mutant survives when any of its tests passes.  The named tests are
first run once on an unmutated copy, where every one must pass, so a test
that fails for another reason never counts as a kill.

    python tests/run_mutants.py [NAME ...]

Exits 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS, Mutant

REPO_ROOT = Path(__file__).resolve().parents[1]

COPIED = ("src", "tests")
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)


def _checkout(tmp: Path) -> None:
    for entry in REPO_ROOT.iterdir():
        if entry.name in COPIED:
            shutil.copytree(entry, tmp / entry.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        elif entry.name != ".git":
            (tmp / entry.name).symlink_to(entry)


def _outcomes(tmp: Path, tests: list[str]) -> dict[str, str]:
    """Each test id run in the copy at tmp, mapped to PASSED, FAILED or ERROR."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rA",
         "--hypothesis-profile", "no-shrink", *tests],
        cwd=tmp, env=env, capture_output=True, text=True,
    )
    return {test: kind for kind, test in _OUTCOME.findall(proc.stdout)}


def _mutate(tmp: Path, mutant: Mutant) -> None:
    path = tmp / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text is not in {mutant.path} exactly once")
    path.write_text(text.replace(mutant.old, mutant.new))


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({test for m in chosen for test in m.kills})
    with tempfile.TemporaryDirectory() as tmp:
        _checkout(Path(tmp))
        clean = _outcomes(Path(tmp), tests)
    broken = [test for test in tests if clean.get(test) != "PASSED"]
    if broken:
        print("not passing without a mutant:", *broken, sep="\n  ")
        return 1
    survivors = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            _checkout(Path(tmp))
            _mutate(Path(tmp), mutant)
            outcomes = _outcomes(Path(tmp), list(mutant.kills))
        passed = [test for test in mutant.kills if outcomes.get(test) not in ("FAILED", "ERROR")]
        print(f"{mutant.name}: {'SURVIVED' if passed else 'killed'}", flush=True)
        for test in passed:
            print(f"  still passes: {test}")
        if passed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
