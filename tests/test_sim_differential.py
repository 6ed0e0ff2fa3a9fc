"""The step, bit for bit against the full-sweep step of `sim_reference`.

Each example draws a small grid scenario and runs it through
`scenario.run_single` twice, once on the package's `World` and once on
`ReferenceWorld`, whose step visits every lane and every green junction.
The trip times, the report row, the flows and the weights log must have the
same bits.  The draws reach what the step's bookkeeping has to get right:
demand up to spillback on short lanes, steps that binary floating point
does not hold exactly, yellows of zero length, every controller, both
attacks and every mitigation.
"""

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sim_reference import ReferenceWorld
from sybil_atsc import scenario
from sybil_atsc.attack import ATTACK_KINDS
from sybil_atsc.controllers import CONTROLLER_KINDS
from sybil_atsc.mitigation import MITIGATION_KINDS
from sybil_atsc.sim import World
from test_golden import _canonical, run_with_trips

DIRECTIONS = ("top", "bottom", "left", "right")


@st.composite
def grid_scenarios(draw) -> scenario.ScenarioConfig:
    demand = st.floats(0.0, 2000.0)  # veh/h, past what a green split serves
    return scenario.ScenarioConfig(
        name="drawn",
        fixture="grid",
        grid_rows=draw(st.integers(1, 3)),
        grid_cols=draw(st.integers(1, 3)),
        lanes_per_direction=draw(st.integers(1, 2)),
        lane_length=draw(st.sampled_from([30.0, 60.0, 150.0, 500.0])),
        inflows_vph={d: draw(demand) for d in DIRECTIONS},
        dt=draw(st.sampled_from([1.0, 0.3, 0.5, 0.7])),
        horizon=draw(st.floats(30.0, 600.0)),
        controller=draw(st.sampled_from(CONTROLLER_KINDS)),
        yellow=draw(st.sampled_from([0.0, 2.0, 3.0])),
        min_green=draw(st.sampled_from([1.0, 5.0])),
        fixed_splits=draw(st.sampled_from([(40.0, 20.0), (7.0, 2.5)])),
        attack=draw(st.sampled_from(ATTACK_KINDS)),
        attack_budget=draw(st.one_of(st.none(), st.floats(0.05, 20.0))),
        attack_start=draw(st.floats(0.0, 300.0)),
        duty_on=draw(st.floats(0.5, 30.0)),
        duty_off=draw(st.floats(0.0, 30.0)),
        attack_replan=draw(st.sampled_from([50.0, 300.0])),
        single_direction=draw(st.booleans()),
        mitigation=draw(st.sampled_from(MITIGATION_KINDS)),
        mitigation_cadence=draw(st.sampled_from([60.0, 300.0])),
    )


def _run(world_type, config, seed) -> tuple[str, str]:
    """The run's canonical text on `world_type`: (outputs, weights log)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scenario, "World", world_type)
        return _canonical(*run_with_trips(config, seed))


# no shrink phase: each example runs two simulations of up to 600 s, so
# shrinking a failure took minutes where reporting it takes seconds
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(config=grid_scenarios(), seed=st.integers(0, 2**16))
def test_step_matches_the_full_sweep(config, seed):
    assert _run(World, config, seed) == _run(ReferenceWorld, config, seed)

