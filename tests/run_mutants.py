"""Check that the tests kill every mutant in tests/mutants.py.

For each mutant this copies src/ and tests/ to a temporary directory (the
rest of the repository is linked in, read-only), replaces the mutant's one
piece of text, and runs the tests it names with hypothesis's shrink phase
off.  A mutant survives when any of its tests passes.  The named tests are
first run once on an unmutated copy, where every one must pass, so a test
that fails for another reason never counts as a kill.

That clean run also times each test.  A mutant's run gets a bound of
`SLOWDOWN` times its tests' clean time plus the clean run's start-up, and
`GRACE` seconds more; a run past it is stopped, its whole process group
killed, and the mutant reported `killed (timeout)`: a mutant that makes its
tests hang, or run that much slower, is one they catch.

    python tests/run_mutants.py [NAME ...]

Exits 0 when every mutant run is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

REPO_ROOT = Path(__file__).resolve().parents[1]

COPIED = ("src", "tests")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rA",
          "--hypothesis-profile", "no-shrink"]
SLOWDOWN = 3.0
GRACE = 10.0
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR) (\S+)", re.MULTILINE)
_DURATION = re.compile(r"^([0-9.]+)s +(?:setup|call|teardown) +(\S+)$", re.MULTILINE)


def _checkout(tmp: Path) -> None:
    for entry in REPO_ROOT.iterdir():
        if entry.name in COPIED:
            shutil.copytree(entry, tmp / entry.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        elif entry.name != ".git":
            (tmp / entry.name).symlink_to(entry)


def _pytest(tmp: Path, args: list[str], timeout: float | None) -> str | None:
    """The standard output of PYTEST run on args in the copy at tmp, or None
    once it has run `timeout` seconds, when its process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"))
    proc = subprocess.Popen(
        [*PYTEST, *args], cwd=tmp, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None


def _outcomes(tmp: Path, tests: list[str], timeout: float | None) -> dict[str, str] | None:
    """Each test id run in the copy at tmp, mapped to PASSED, FAILED or
    ERROR; None if the run went past `timeout` seconds."""
    out = _pytest(tmp, tests, timeout)
    return None if out is None else {test: kind for kind, test in _OUTCOME.findall(out)}


def _clean_run(tmp: Path, tests: list[str]) -> tuple[dict[str, str], dict[str, float], float]:
    """The unmutated copy's outcomes, each test's time (setup, call and
    teardown) and the run's start-up: its wall time less the tests' time."""
    start = time.perf_counter()
    out = _pytest(tmp, ["--durations=0", "--durations-min=0", *tests], None)
    wall = time.perf_counter() - start
    durations: dict[str, float] = {}
    for seconds, test in _DURATION.findall(out):
        durations[test] = durations.get(test, 0.0) + float(seconds)
    outcomes = {test: kind for kind, test in _OUTCOME.findall(out)}
    return outcomes, durations, max(0.0, wall - sum(durations.values()))


def _bound(mutant: Mutant, durations: dict[str, float], startup: float) -> float:
    return SLOWDOWN * (startup + sum(durations.get(t, 0.0) for t in mutant.kills)) + GRACE


def _verdict(mutant: Mutant, outcomes: dict[str, str] | None) -> tuple[str, list[str]]:
    """'killed', 'killed (timeout)' or 'SURVIVED', and the named tests that
    still pass."""
    if outcomes is None:
        return "killed (timeout)", []
    passed = [test for test in mutant.kills if outcomes.get(test) not in ("FAILED", "ERROR")]
    return ("SURVIVED" if passed else "killed"), passed


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
        clean, durations, startup = _clean_run(Path(tmp), tests)
    broken = [test for test in tests if clean.get(test) != "PASSED"]
    if broken:
        print("not passing without a mutant:", *broken, sep="\n  ")
        return 1
    survivors = []
    for mutant in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            _checkout(Path(tmp))
            _mutate(Path(tmp), mutant)
            outcomes = _outcomes(Path(tmp), list(mutant.kills),
                                 _bound(mutant, durations, startup))
        verdict, passed = _verdict(mutant, outcomes)
        print(f"{mutant.name}: {verdict}", flush=True)
        for test in passed:
            print(f"  still passes: {test}")
        if passed:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
