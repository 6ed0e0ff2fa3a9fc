import math

import pytest

from sybil_atsc.controllers import (
    FixedSchedule,
    adaptive_decide,
    build_controller,
    fixed_time_decide,
    gap_actuated_decide,
    perceived_headway,
)
from sybil_atsc.sim import PerceivedObservation, SimConfig, World
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
)

DIAGRAM = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)
CFG = SimConfig()


def make_junction():
    lanes = tuple(
        Lane(id=d, length=70.0, diagram=DIAGRAM, saturation_flow=0.5)
        for d in ("N", "S", "E", "W")
    )
    phases = (
        SignalPhase(id="NS", served_lanes=("N", "S")),
        SignalPhase(id="EW", served_lanes=("E", "W")),
    )
    return Junction(id="J", approach_lanes=lanes, phase_table=phases)


def make_signal(elapsed):
    """Junction J's signal, compiled by a world, green on NS for `elapsed` s."""
    world = World(Network(junctions=(make_junction(),)), None, config=CFG)
    sig = world.signals["J"]
    sig.phase_elapsed = elapsed
    return sig


LANE_IDS = ("N", "S", "E", "W")  # junction J's lanes, in the world's lane order


def obs_with(counts):
    """A snapshot of J's lanes: `counts` by lane id, 0.0 on the others."""
    return PerceivedObservation([counts.get(d, 0.0) for d in LANE_IDS], LANE_IDS)


class TestFixedTime:
    SCHEDULE = FixedSchedule(phase_ids=("NS", "EW"), durations=(30.0, 30.0))

    def test_schedule_lookup(self):
        assert fixed_time_decide(self.SCHEDULE, 15.0) == "NS"
        assert fixed_time_decide(self.SCHEDULE, 45.0) == "EW"
        assert fixed_time_decide(self.SCHEDULE, 75.0) == "NS"  # wraps

    def test_observation_independent(self):
        # the schedule signature takes no observation at all; commands at a
        # given time are one fixed value no matter what is perceived
        assert fixed_time_decide(self.SCHEDULE, 15.0) == fixed_time_decide(
            self.SCHEDULE, 15.0 + 60.0
        )

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            FixedSchedule(phase_ids=("a",), durations=(0.0,))
        with pytest.raises(ValueError):
            FixedSchedule(phase_ids=("a", "b"), durations=(10.0,))


class TestPerceivedHeadway:
    def test_empty_lane_is_infinite(self):
        lane = make_junction().approach_lanes[0]
        assert perceived_headway(obs_with({}), lane, 0) == math.inf

    def test_headway_from_count(self):
        # 70 m at 35 m/s spreads perceived vehicles over a 2 s window
        lane = make_junction().approach_lanes[0]
        assert perceived_headway(obs_with({"N": 1.0}), lane, 0) == pytest.approx(2.0)
        assert perceived_headway(obs_with({"N": 4.0}), lane, 0) == pytest.approx(0.5)

    def test_quantised_to_tenth_second(self):
        lane = make_junction().approach_lanes[0]
        h = perceived_headway(obs_with({"N": 3.0}), lane, 0)  # 0.666... -> 0.7
        assert h == pytest.approx(0.7)


class TestGapActuated:
    def test_tight_headway_extends(self):
        sig = make_signal(20.0)
        # one perceived vehicle on N -> 2 s headway, below the 3 s gap
        cmd = gap_actuated_decide(sig, obs_with({"N": 1.0}), CFG)
        assert cmd == "NS"

    def test_max_green_forces_switch(self):
        sig = make_signal(45.0)
        cmd = gap_actuated_decide(sig, obs_with({"N": 5.0}), CFG)
        assert cmd == "EW"

    def test_min_green_holds_then_switches_when_empty(self):
        sig = make_signal(3.0)
        assert gap_actuated_decide(sig, obs_with({}), CFG) == "NS"
        sig.phase_elapsed = 5.0
        assert gap_actuated_decide(sig, obs_with({}), CFG) == "EW"

    def test_wide_gap_switches(self):
        sig = make_signal(10.0)
        # 0.4 perceived vehicles -> 5 s headway, above the 3 s gap
        cmd = gap_actuated_decide(sig, obs_with({"N": 0.4}), CFG)
        assert cmd == "EW"


class TestAdaptive:
    def decide(self, counts, elapsed=10.0):
        """The decision at t = 0 on a junction never commanded before."""
        signals = {"J": make_signal(elapsed)}
        return adaptive_decide(signals, lambda: obs_with(counts), CFG, {"J": -math.inf}, 0.0)

    def test_dominant_phase_already_served_stays(self):
        cmds = self.decide({"N": 10.0, "S": 8.0, "E": 1.0})
        assert cmds == {"J": "NS"}

    def test_dominated_phase_switches_after_min_green(self):
        cmds = self.decide({"N": 1.0, "E": 10.0, "W": 8.0}, elapsed=6.0)
        assert cmds == {"J": "EW"}  # pressure 18 - penalty 2 beats 1

    def test_min_green_respected(self):
        cmds = self.decide({"E": 50.0}, elapsed=2.0)
        assert cmds == {}

    def test_penalty_keeps_near_ties_in_place(self):
        cmds = self.decide({"N": 5.0, "E": 6.0})
        assert cmds == {"J": "NS"}  # 6 - 2 < 5

    def test_phantom_counts_flip_the_decision(self):
        # real demand favours NS; phantom-inflated EW counts steal the green
        cmds = self.decide({"N": 4.0, "S": 3.0, "E": 1.0, "W": 0.0})
        assert cmds == {"J": "NS"}
        cmds = self.decide({"N": 4.0, "S": 3.0, "E": 10.0, "W": 6.0})
        assert cmds == {"J": "EW"}

    def test_max_green_rotates_out(self):
        cmds = self.decide({"N": 50.0}, elapsed=45.0)
        assert cmds == {"J": "EW"}

    def test_cadence_from_last_decision(self):
        # a junction commanded at t = 10 is not due again before t = 15
        signals = {"J": make_signal(10.0)}
        last = {"J": 10.0}
        observed = []

        def observe():
            observed.append(True)
            return obs_with({"E": 30.0})

        assert adaptive_decide(signals, observe, CFG, last, 14.0) == {}
        assert observed == [] and last == {"J": 10.0}
        assert adaptive_decide(signals, observe, CFG, last, 15.0) == {"J": "EW"}
        assert observed == [True] and last == {"J": 15.0}


class TestBuildController:
    def test_kinds(self):
        from sybil_atsc.networks import three_junction_reference

        net = three_junction_reference()
        for kind in ("fixed", "gap_actuated", "adaptive"):
            assert build_controller(kind, net, CFG) is not None
        with pytest.raises(ValueError):
            build_controller("rl", net, CFG)

    def test_pressure_controller_decision_cadence(self):
        from sybil_atsc.networks import three_junction_reference
        from sybil_atsc.sim import World

        net = three_junction_reference()
        ctrl = build_controller("adaptive", net, CFG)
        world = World(net, ctrl, seed=1, config=CFG)
        for sig in world.signals.values():
            sig.phase_elapsed = 10.0  # past min green
        first = ctrl.decide(world, 0.0)
        assert set(first) == {"J1", "J2", "J3"}
        # within the decision interval nothing is re-commanded
        assert ctrl.decide(world, 2.0) == {}
        assert set(ctrl.decide(world, 5.0)) == {"J1", "J2", "J3"}
