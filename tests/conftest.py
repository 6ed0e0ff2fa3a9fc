from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a scheduled CI job's deeper search: fresh random draws on every run
settings.register_profile(
    "weekly",
    derandomize=False,
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the mutation runner's: a failure is all it needs to see, not its smallest form
settings.register_profile(
    "no-shrink",
    parent=settings.get_profile("ci"),
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("ci")

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture
def scenario_dir() -> Path:
    return SCENARIO_DIR


@pytest.fixture
def nan_lp(monkeypatch):
    """Make the game's LP return NaN for every output."""
    import sybil_atsc.game as game
    from sybil_atsc.simplex import LPResult

    def solve_lp(c, *args, **kwargs):
        return LPResult(x=np.full(len(c), np.nan), objective=float("nan"))

    monkeypatch.setattr(game, "solve_lp", solve_lp)
