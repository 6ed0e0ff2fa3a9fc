"""A run's physics, replayed from its signal commands alone.

Real vehicles move only by the arrival draws and the signal commands: the
perception snapshot, the attack and the filter reach them only through
what a controller commands.  Each example runs a drawn config through
`scenario.run_single` with its controller's commands recorded, then feeds
those commands, step by step, to a `World` with no taps, built from the
same network, seed and `SimConfig`.  Both must give the same trips, flow
summary and censored count.  Criterion 4 (test_acceptance.py) checks this
seam under fixed-time control, which never observes; the draws here reach
every controller, both fixtures and every attack and filter kind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybil_atsc import scenario
from sybil_atsc.metrics import trip_records
from sybil_atsc.scenario import ScenarioConfig, ScenarioError
from sybil_atsc.sim import World, run
from test_golden import run_with_trips
from test_scenario import scenario_fields


class _Recorded:
    """A controller whose every decision is kept, in step order."""

    def __init__(self, controller):
        self.controller = controller
        self.commands: list[dict[str, str]] = []

    def decide(self, world, t):
        command = self.controller.decide(world, t)
        self.commands.append(dict(command))
        return command


class _Replayed:
    """A controller that issues the recorded commands, one per step."""

    def __init__(self, commands):
        self.commands = iter(commands)

    def decide(self, world, t):
        return next(self.commands)


@settings(max_examples=settings.default.max_examples // 5)  # 20 in tier-1, 200 weekly
@given(values=scenario_fields(edges=False), seed=st.integers(0, 2**16))
def test_a_replay_of_the_commands_gives_the_same_physics(values, seed):
    try:
        config = ScenarioConfig(**values)
    except ScenarioError:
        return  # test_a_config_that_constructs_runs covers the rejections
    recorded = []

    def build_controller(*args):
        recorded.append(_Recorded(real_build(*args)))
        return recorded[-1]

    real_build = scenario.build_controller
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scenario, "build_controller", build_controller)
        report, trips = run_with_trips(config, seed)
    world = World(config.network, _Replayed(recorded[0].commands), seed=seed,
                  config=config.sim_config())
    result = run(world, config.horizon)
    assert trip_records(result.trips) == trips
    assert world.measured_flows() == report.flow_summary
    assert result.censored == report.censored
