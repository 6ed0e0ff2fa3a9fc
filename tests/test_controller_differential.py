"""The package's controllers, step for step against `controller_reference`.

Each example draws a small network of independent junctions, each with a
table of one to three phases over its four lanes (phases may serve the same
lanes, so rivals can tie, or none, an all-red stage), and steps a `World`
whose controller decides with the package's controller and requires the plain reference decision to
agree on every step: the same command dict and, for the pressure policy,
the same decision time for every junction.  The draws reach what the
compiled phase records and the grouped fixed-time schedules must get
right: one-phase junctions, max greens a step or less past min green,
coarse perception that makes rivals tie, schedules of several lengths in
one world, and steps of 0.1 s, whose sums binary floating point does not
hold exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from controller_reference import REFERENCES
from sybil_atsc.controllers import CONTROLLER_KINDS, build_controller
from sybil_atsc.sim import PerceivedObservation, SimConfig, World
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
)

DIAGRAM = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)
DIRECTIONS = ("N", "S", "E", "W")


@st.composite
def junctions(draw, j: int) -> Junction:
    lanes = tuple(
        Lane(
            id=f"J{j}:{d}",
            length=draw(st.sampled_from([30.0, 70.0, 150.0])),
            diagram=DIAGRAM,
            saturation_flow=draw(st.sampled_from([0.3, 0.5])),
            inflow_rate=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])),
        )
        for d in DIRECTIONS
    )
    ids = [lane.id for lane in lanes]
    served = [
        draw(st.lists(st.sampled_from(ids), min_size=0, max_size=4, unique=True))
        for _ in range(draw(st.integers(1, 3)))
    ]
    # every lane is served: the first phase takes the lanes no phase names
    served[0] += [lid for lid in ids if not any(lid in s for s in served)]
    table = []
    for i, lids in enumerate(served):
        min_green = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
        table.append(SignalPhase(
            id=f"J{j}:P{i}",
            served_lanes=tuple(lids),
            min_green=min_green,
            max_green=min_green + draw(st.sampled_from([0.0, 0.3, 1.0, 10.0])),
            yellow=draw(st.sampled_from([0.0, 0.5, 2.0])),
        ))
    return Junction(id=f"J{j}", approach_lanes=lanes, phase_table=tuple(table))


def coarse(obs: PerceivedObservation) -> PerceivedObservation:
    """Counts capped at 2 vehicles: phases serving as many busy lanes tie."""
    return PerceivedObservation([min(c, 2.0) for c in obs.counts], obs.lanes)


class Lockstep:
    """Decides with the package's controller, once the reference agrees."""

    def __init__(self, kind, network, config):
        self.package = build_controller(kind, network, config)
        self.reference = REFERENCES[kind](network, config)

    def decide(self, world, t):
        commands = self.package.decide(world, t)
        step = world.step_index
        assert commands == self.reference.decide(world, t), f"commands at step {step}"
        assert getattr(self.package, "_last_decision", None) == getattr(
            self.reference, "_last_decision", None
        ), f"decision times at step {step}"
        return commands


def empty_junction(min_green: float, max_green: float,
                   phases=(("NS", ("N", "S")), ("EW", ("E", "W")))) -> Network:
    """One empty junction of these phases (id, served lanes), two unless
    given, each with these green bounds."""
    lanes = tuple(
        Lane(id=d, length=70.0, diagram=DIAGRAM, saturation_flow=0.5) for d in DIRECTIONS
    )
    table = tuple(
        SignalPhase(id=pid, served_lanes=served, min_green=min_green,
                    max_green=max_green, yellow=0.0)
        for pid, served in phases
    )
    return Network(junctions=(Junction(id="J", approach_lanes=lanes, phase_table=table),))


# 40 examples under the tier-1 profile and 400 under the weekly one
@settings(max_examples=settings.default.max_examples * 2 // 5)
@given(
    kind=st.sampled_from(CONTROLLER_KINDS),
    network=st.integers(1, 3).flatmap(
        lambda n: st.tuples(*(junctions(j) for j in range(n)))
    ).map(Network),
    config=st.builds(
        SimConfig,
        dt=st.sampled_from([1.0, 0.5, 0.3, 0.1]),
        max_gap=st.sampled_from([0.0, 2.0, 3.0]),
        decision_interval=st.sampled_from([0.0, 1.0, 2.5, 5.0]),
        switch_penalty=st.sampled_from([-1.0, 0.0, 2.0]),
        fixed_splits=st.lists(
            st.sampled_from([0.1, 0.2, 0.3, 0.7, 2.5, 7.0, 20.0]), min_size=1, max_size=3
        ).map(tuple),
    ),
    perception=st.sampled_from([None, coarse]),
    steps=st.integers(20, 300),
    seed=st.integers(0, 2**16),
)
# ten steps of 0.1 s sum to 0.9999999999999999: only the tolerance lets the
# green reach its 1 s bound then, and an empty junction is decided on every
# step, so the step at which it leaves its phase shows each bound
@example(kind="adaptive", network=empty_junction(1.0, 1.0),
         config=SimConfig(dt=0.1, decision_interval=0.0), perception=None, steps=30, seed=1)
@example(kind="adaptive", network=empty_junction(0.5, 1.0),
         config=SimConfig(dt=0.1, decision_interval=0.0), perception=None, steps=30, seed=1)
# a junction of one phase has no rival to rotate to at its max green
@example(kind="adaptive", network=empty_junction(1.0, 1.0, (("ALL", DIRECTIONS),)),
         config=SimConfig(decision_interval=0.0), perception=None, steps=5, seed=1)
def test_each_decision_matches_the_plain_form(kind, network, config, perception, steps, seed):
    world = World(
        network, Lockstep(kind, network, config), seed=seed, config=config,
        perception_filter=perception,
    )
    for _ in range(steps):
        world.step()
