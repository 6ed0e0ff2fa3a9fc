import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from sim_reference import ReferenceWorld

from sybil_atsc import scenario
from sybil_atsc.controllers import (
    CONTROLLER_KINDS,
    FixedSchedule,
    PressureController,
    build_controller,
    longest_greens,
    perceived_headway,
)
from sybil_atsc.networks import grid
from sybil_atsc.scenario import parse_scenario
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


HOLD = SimpleNamespace(decide=lambda world, t: {})  # commands nothing


def green_for(elapsed, junction=None):
    """A world of one junction, J unless given, stepped with no command for
    `elapsed` s (dt = 1 s): green on its first phase all that time."""
    world = World(Network(junctions=(junction or make_junction(),)), HOLD, config=CFG)
    for _ in range(int(elapsed)):
        world.step()
    assert world.step_sums[world.step_index - world.signals["J"].since] == elapsed
    return world


def one_junction(phases, elapsed):
    """A world of signal J with these phases (id, served lanes) over its
    four lanes, green on the first for `elapsed` s."""
    lanes = make_junction().approach_lanes
    table = tuple(SignalPhase(id=pid, served_lanes=served) for pid, served in phases)
    return green_for(elapsed, Junction(id="J", approach_lanes=lanes, phase_table=table))


def seen_through(world, observe):
    """A stub of the world at its step whose snapshot comes from `observe`."""
    return SimpleNamespace(
        signals=world.signals, step_sums=world.step_sums, step_index=world.step_index,
        observe=observe,
    )


def decide_on(world, observe, last, t, config=CFG):
    """The pressure decision at t on the world at its step, seen through
    `observe`; the junctions' last decision times start as `last`, which
    keeps them afterwards."""
    controller = PressureController(world.network, config)
    controller._last_decision = last
    return controller.decide(seen_through(world, observe), t)


def gap_decide(counts, elapsed, config=CFG):
    """The gap-actuated commands for junction J, green on NS for `elapsed` s,
    when its lanes show these counts."""
    world = green_for(elapsed)
    controller = build_controller("gap_actuated", world.network, config)
    return controller.decide(seen_through(world, lambda: obs_with(counts)), world.time)


def scheduled(network, config, t):
    """The fixed-time commands at t to a stub world, with no snapshot, in
    which no junction shows a phase yet: each junction's scheduled phase."""
    world = SimpleNamespace(
        signals={j.id: SimpleNamespace(active_phase=None) for j in network.junctions}
    )
    return build_controller("fixed", network, config).decide(world, t)


LANE_IDS = ("N", "S", "E", "W")  # junction J's lanes, in the world's lane order
DIRECTIONS = ("top", "bottom", "left", "right")


def obs_with(counts):
    """A snapshot of J's lanes: `counts` by lane id, 0.0 on the others."""
    return PerceivedObservation([counts.get(d, 0.0) for d in LANE_IDS], LANE_IDS)


class TestFixedTime:
    NET = Network(junctions=(make_junction(),))
    CONFIG = SimConfig(fixed_splits=(30.0, 30.0))

    def test_schedule_lookup(self):
        assert scheduled(self.NET, self.CONFIG, 15.0) == {"J": "NS"}
        assert scheduled(self.NET, self.CONFIG, 45.0) == {"J": "EW"}
        assert scheduled(self.NET, self.CONFIG, 75.0) == {"J": "NS"}  # wraps

    def test_observation_independent(self):
        # the stub world has no snapshot to give; commands at a given time
        # are one fixed value no matter what is perceived
        assert scheduled(self.NET, self.CONFIG, 15.0) == scheduled(
            self.NET, self.CONFIG, 15.0 + 60.0
        )

    def test_a_command_the_yellow_ignores_is_issued_again_after_it(self):
        # EW is green for 2 s of each 22 s cycle, shorter than the 3 s
        # yellow: the schedule turns back to NS while EW's yellow runs, and
        # the controller commands NS again on the first step after it
        cfg = SimConfig(fixed_splits=(2.0, 20.0))
        net = grid(1, 1, yellow=3.0)

        def trace(world_type):
            """Each step's commands, and the signal's state after the step."""
            commands, states = [], []
            ctrl = build_controller("fixed", net, cfg)

            def decide(world, t):
                commands.append(ctrl.decide(world, t))
                return commands[-1]

            world = world_type(net, SimpleNamespace(decide=decide), seed=1, config=cfg)
            (sig,) = world.signals.values()
            for _ in range(50):
                world.step()
                states.append((sig.active_phase, sig.pending_phase))
            return commands, states

        commands, states = trace(World)
        assert (commands, states) == trace(ReferenceWorld)
        ew, ns = "J0_0:EW", "J0_0:NS"
        # t = 22: the schedule turns to EW, which ends its yellow at t = 25;
        # from t = 24 it wants NS again, and NS is commanded at t = 25
        assert states[21] == (ns, None) and states[22] == (ns, ew)
        assert commands[22] == commands[23] == {"J0_0": ew}  # again in its yellow
        assert commands[24] == {} and states[24] == (ns, ew)  # NS is still active
        assert commands[25] == {"J0_0": ns} and states[25] == (ew, ns)
        assert states[28] == (ns, None)
        # the first cycle starts green on EW: NS is commanded at t = 2 and
        # turns green at t = 5
        assert states[2] == (ew, ns) and states[5] == (ns, None)

    def test_each_distinct_schedule_is_evaluated_once_per_step(self, monkeypatch):
        # the grid's four junctions share one schedule, so one slot lookup
        # serves all of them
        looked_up = []
        slot = FixedSchedule.slot
        monkeypatch.setattr(
            FixedSchedule, "slot", lambda self, t: looked_up.append(t) or slot(self, t)
        )
        net = grid(2, 2)
        controller = build_controller("fixed", net, CFG)
        # 45 s into the 60 s cycle is the second split: every junction,
        # green on its first phase, EW, is commanded to NS
        commands = controller.decide(World(net, HOLD, config=CFG), 45.0)
        assert commands == {jid: f"{jid}:NS" for jid in ("J0_0", "J0_1", "J1_0", "J1_1")}
        assert looked_up == [45.0]

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            FixedSchedule(durations=(0.0,))
        with pytest.raises(ValueError):
            FixedSchedule(durations=(10.0, -1.0))
        with pytest.raises(ValueError, match="durations > 0"):
            FixedSchedule(durations=(10.0, math.nan))

    def test_empty_splits_are_rejected_as_a_scenario_would(self):
        with pytest.raises(ValueError, match="^fixed_splits must list one or more durations > 0$"):
            build_controller("fixed", self.NET, SimConfig(fixed_splits=()))


class TestPerceivedHeadway:
    def test_empty_lane_is_infinite(self):
        lane = make_junction().approach_lanes[0]
        assert perceived_headway(0.0, lane) == math.inf

    def test_headway_from_count(self):
        # 70 m at 35 m/s spreads perceived vehicles over a 2 s window
        lane = make_junction().approach_lanes[0]
        assert perceived_headway(1.0, lane) == pytest.approx(2.0)
        assert perceived_headway(4.0, lane) == pytest.approx(0.5)

    def test_quantised_to_tenth_second(self):
        lane = make_junction().approach_lanes[0]
        h = perceived_headway(3.0, lane)  # 0.666... -> 0.7
        assert h == pytest.approx(0.7)


class TestGapActuated:
    # junction J is green on NS; no command keeps NS, and its one other
    # phase is EW

    def test_tight_headway_extends(self):
        # one perceived vehicle on N -> 2 s headway, below the 3 s gap
        assert gap_decide({"N": 1.0}, 20.0) == {}

    def test_max_green_forces_switch(self):
        assert gap_decide({"N": 5.0}, 45.0) == {"J": "EW"}

    def test_min_green_holds_then_switches_when_empty(self):
        assert gap_decide({}, 3.0) == {}
        assert gap_decide({}, 5.0) == {"J": "EW"}

    def test_wide_gap_switches(self):
        # 0.4 perceived vehicles -> 5 s headway, above the 3 s gap
        assert gap_decide({"N": 0.4}, 10.0) == {"J": "EW"}

    def test_a_headway_at_the_gap_switches(self):
        # one perceived vehicle on N -> a 2 s headway, exactly the gap: not
        # tight enough to extend
        assert perceived_headway(1.0, make_junction().approach_lanes[0]) == 2.0
        assert gap_decide({"N": 1.0}, 10.0, SimConfig(max_gap=2.0)) == {"J": "EW"}

    def test_a_junction_in_yellow_is_not_decided(self):
        # past max green with no vehicle, but in yellow: held
        world = green_for(45.0)
        world.signals["J"].pending_phase = "EW"
        controller = build_controller("gap_actuated", world.network, CFG)
        assert controller.decide(seen_through(world, lambda: obs_with({})), 45.0) == {}

    def test_a_phase_serving_no_lane_leaves_at_min_green(self):
        # an all-red phase shows no headway: held short of its min green,
        # then sent on to the next phase, at any max gap
        for max_gap in (0.0, 3.0, math.inf):
            config = SimConfig(max_gap=max_gap)
            for elapsed, commands in ((4.0, {}), (5.0, {"J": "ALL"}), (45.0, {"J": "ALL"})):
                world = one_junction([("RED", ()), ("ALL", LANE_IDS)], elapsed)
                controller = build_controller("gap_actuated", world.network, config)
                seen = seen_through(world, lambda: obs_with({"N": 9.0}))
                assert controller.decide(seen, world.time) == commands

    def test_a_world_with_an_all_red_phase_runs(self):
        # RED serves no lane: each time it ends at its 5 s min green, and
        # after its 3 s yellow ALL, whose busy lanes show tight headways,
        # holds to its 45 s max green
        lanes = tuple(
            Lane(id=d, length=70.0, diagram=DIAGRAM, saturation_flow=0.5, inflow_rate=0.5)
            for d in LANE_IDS
        )
        table = (SignalPhase(id="RED", served_lanes=()),
                 SignalPhase(id="ALL", served_lanes=LANE_IDS))
        net = Network(junctions=(Junction(id="J", approach_lanes=lanes, phase_table=table),))
        world = World(net, build_controller("gap_actuated", net, CFG), seed=1, config=CFG)
        sig = world.signals["J"]
        phases = []
        for _ in range(70):
            world.step()
            phases.append((sig.active_phase, sig.pending_phase))
        red = [("RED", None)] * 5 + [("RED", "ALL")] * 3
        assert phases == red + [("ALL", None)] * 45 + [("ALL", "RED")] * 3 + red + [("ALL", None)] * 6

    def test_the_controller_reads_each_junction_s_clock(self):
        # stepped to 5 s of NS green, past min green and with no vehicle to
        # extend it, the junction is commanded to EW
        world = green_for(4)
        controller = build_controller("gap_actuated", world.network, CFG)
        assert controller.decide(world, world.time) == {}
        world.step()
        assert controller.decide(world, world.time) == {"J": "EW"}


class TestAdaptive:
    def decide(self, counts, elapsed=10.0):
        """The decision at t = 0 on junction J, green on NS for `elapsed` s
        and never decided before.

        `self.last` keeps the junction's last decision time afterwards.
        """
        self.last = {"J": -math.inf}
        return decide_on(green_for(elapsed), lambda: obs_with(counts), self.last, 0.0)

    def test_dominant_phase_already_served_stays(self):
        # a junction that keeps its phase gets no command, but was decided
        cmds = self.decide({"N": 10.0, "S": 8.0, "E": 1.0})
        assert cmds == {}
        assert self.last == {"J": 0.0}

    def test_dominated_phase_switches_after_min_green(self):
        cmds = self.decide({"N": 1.0, "E": 10.0, "W": 8.0}, elapsed=6.0)
        assert cmds == {"J": "EW"}  # pressure 18 - penalty 2 beats 1

    def test_min_green_respected(self):
        cmds = self.decide({"E": 50.0}, elapsed=2.0)
        assert cmds == {}
        assert self.last == {"J": -math.inf}  # held: not decided at all

    def test_decided_from_exactly_min_green(self):
        assert self.decide({"E": 50.0}, elapsed=4.0) == {}
        assert self.decide({"E": 50.0}, elapsed=5.0) == {"J": "EW"}

    def test_a_junction_in_yellow_is_not_decided(self):
        # past min green, but in yellow: held whatever the counts
        world = green_for(10.0)
        world.signals["J"].pending_phase = "EW"
        last = {"J": -math.inf}
        assert decide_on(world, lambda: obs_with({"E": 50.0}), last, 0.0) == {}
        assert last == {"J": -math.inf}

    def test_penalty_keeps_near_ties_in_place(self):
        cmds = self.decide({"N": 5.0, "E": 6.0})
        assert cmds == {}  # 6 - 2 < 5: NS stays
        assert self.last == {"J": 0.0}

    def test_phantom_counts_flip_the_decision(self):
        # real demand favours NS; phantom-inflated EW counts steal the green
        cmds = self.decide({"N": 4.0, "S": 3.0, "E": 1.0, "W": 0.0})
        assert cmds == {} and self.last == {"J": 0.0}  # NS stays
        cmds = self.decide({"N": 4.0, "S": 3.0, "E": 10.0, "W": 6.0})
        assert cmds == {"J": "EW"} and self.last == {"J": 0.0}

    def test_max_green_rotates_out(self):
        cmds = self.decide({"N": 50.0}, elapsed=45.0)
        assert cmds == {"J": "EW"}

    def test_cadence_from_last_decision(self):
        # a junction commanded at t = 10 is not due again before t = 15
        world = green_for(10.0)
        last = {"J": 10.0}
        observed = []

        def observe():
            observed.append(True)
            return obs_with({"E": 30.0})

        assert decide_on(world, observe, last, 14.0) == {}
        assert observed == [] and last == {"J": 10.0}
        assert decide_on(world, observe, last, 15.0) == {"J": "EW"}
        assert observed == [True] and last == {"J": 15.0}

    def test_one_phase_junction_at_max_green_keeps_its_phase(self):
        # there is no rival to rotate to, so max green changes nothing
        world = one_junction([("ALL", LANE_IDS)], elapsed=45.0)
        last = {"J": -math.inf}
        assert decide_on(world, lambda: obs_with({}), last, 0.0) == {}
        assert last == {"J": 0.0}

    @pytest.mark.parametrize("count", [5.0, 2.0**15])
    @pytest.mark.parametrize("elapsed", [10.0, 45.0])
    def test_equal_rivals_go_to_the_first_in_table_order(self, count, elapsed):
        # at 2**15 vehicles adding the 1e-12 tolerance rounds to nothing, so
        # only the strict comparison keeps the earlier of two equal rivals
        world = one_junction(
            [("N", ("N",)), ("SE", ("S", "E")), ("EW", ("E", "W"))], elapsed
        )
        counts = {"S": count, "E": count, "W": count}
        cmds = decide_on(world, lambda: obs_with(counts), {"J": -math.inf}, 0.0)
        assert cmds == {"J": "SE"}

    @pytest.mark.parametrize("lead, commands", [(math.ulp(2.0**15), {}), (1.0, {"J": "EW"})])
    def test_a_one_ulp_lead_at_2_15_vehicles_is_a_tie(self, lead, commands):
        # 1e-12 is under half an ulp of 2**15, so an absolute tie tolerance
        # would let a rival one ulp ahead win; the relative one keeps NS
        # (the rival's pressure is E - 2.0, the penalty, exactly)
        assert self.decide({"N": 2.0**15, "E": 2.0**15 + 2.0 + lead}) == commands

    def test_the_seed_1_grid_near_tie_keeps_the_active_phase(self, monkeypatch):
        # at t = 793 s of the filtered grid's seed-1 run, junction J5_2's
        # rival NS leads the active EW by two ulps of a filtered pressure
        # just under 1 vehicle: a tie, so EW stays
        seen = []

        class Recording(PressureController):
            def decide(self, world, t):
                commands = super().decide(world, t)
                if t == 793.0:
                    sig = world.signals["J5_2"]
                    counts = world.observe().counts
                    pressure = {pid: sum(phase.read(counts)) for pid, phase in sig.phases.items()}
                    seen.append((commands, sig.active_phase, pressure))
                return commands

        monkeypatch.setattr(scenario, "build_controller",
                            lambda kind, network, config: Recording(network, config))
        config = parse_scenario(REPO_ROOT / "perfbench" / "scenarios" / "grid_attack_filtered.scn")
        scenario.run_single(config, 1)
        [(commands, active, pressure)] = seen
        assert active == "J5_2:EW" and "J5_2" not in commands
        ew, ns = pressure["J5_2:EW"], pressure["J5_2:NS"] - config.switch_penalty
        assert 0.99 < ew < ns <= ew + 2 * math.ulp(ew)

    @pytest.mark.parametrize("penalty, commands", [(2.0, {}), (-1.0, {"J": "RED"})])
    def test_a_phase_serving_no_lane_has_no_pressure(self, penalty, commands):
        # an all-red phase reads no count: its pressure is 0 less the penalty,
        # against 0 on the empty lanes of the active phase
        world = one_junction([("ALL", LANE_IDS), ("RED", ())], elapsed=10.0)
        cfg = SimConfig(switch_penalty=penalty)
        last = {"J": -math.inf}
        assert decide_on(world, lambda: obs_with({}), last, 0.0, cfg) == commands


@st.composite
def timed_junctions(draw):
    """A junction of three phases over four busy lanes, each phase with its
    own drawn timing, and a config to run it under."""
    lanes = tuple(
        Lane(id=d, length=70.0, diagram=DIAGRAM, saturation_flow=0.5, inflow_rate=0.4)
        for d in LANE_IDS
    )
    phases = []
    for pid, served in (("A", ("N",)), ("B", ("S", "E")), ("C", ("W",))):
        min_green = draw(st.floats(0.5, 10.0))
        phases.append(SignalPhase(
            id=pid, served_lanes=served, min_green=min_green,
            max_green=draw(st.floats(min_green, 30.0)), yellow=draw(st.floats(0.0, 4.0)),
        ))
    config = SimConfig(
        dt=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0, 2.0])),
        decision_interval=draw(st.just(0.0) | st.floats(0.0, 20.0)),
        switch_penalty=draw(st.sampled_from([-50.0, 0.0, 2.0, 1e9])),
        max_gap=draw(st.sampled_from([0.0, 3.0, 100.0])),
    )
    return Junction(id="J", approach_lanes=lanes, phase_table=tuple(phases)), config


def longest_seen(junction, kind, config, seconds=300.0):
    """The longest green, in seconds, that each phase of the junction held
    in a run under `kind`, leaving out the first green, before any yellow."""
    network = Network(junctions=(junction,))
    world = World(network, build_controller(kind, network, config), seed=1, config=config)
    sig = world.signals["J"]
    seen = dict.fromkeys((phase.id for phase in junction.phase_table), 0.0)
    run = None  # (phase, its green steps so far); None before the first yellow
    for _ in range(int(seconds / config.dt)):
        world.step()
        if sig.pending_phase is not None:
            run = ("", 0)
        elif run is not None:
            run = (sig.active_phase, run[1] + 1 if run[0] == sig.active_phase else 1)
            seen[run[0]] = max(seen[run[0]], run[1] * config.dt)
    return seen


class TestLongestGreens:
    HORIZON = 300.0  # longest_seen's run

    @settings(max_examples=30, deadline=None)
    @given(timed_junctions(), st.sampled_from(("gap_actuated", "adaptive")))
    def test_no_green_runs_past_its_longest(self, drawn, kind):
        # fixed-time greens have their own property, TestFixedSlots
        junction, config = drawn
        longest = longest_greens(kind, junction, config, self.HORIZON)
        seen = longest_seen(junction, kind, config, self.HORIZON)
        assert all(seen[pid] <= longest[pid] + 1e-9 for pid in seen)

    @pytest.mark.parametrize("kind, longest", [
        # a decision every 8 s, the first 8 s after the command that ended
        # the last green, 1 s of it in yellow: at 7 s and 15 s of green
        ("adaptive", {"NS": 15.0, "EW": 15.0}),
        ("gap_actuated", {"NS": 10.0, "EW": 10.0}),
        # the 12 s and 6 s splits less the 1 s yellow before each
        ("fixed", {"NS": 11.0, "EW": 5.0}),
    ])
    def test_a_green_held_to_its_bound_reaches_it(self, kind, longest):
        lanes = tuple(replace(lane, inflow_rate=0.4) for lane in make_junction().approach_lanes)
        timing = dict(min_green=1.0, max_green=10.0, yellow=1.0)
        junction = Junction(id="J", approach_lanes=lanes, phase_table=(
            SignalPhase(id="NS", served_lanes=("N", "S"), **timing),
            SignalPhase(id="EW", served_lanes=("E", "W"), **timing),
        ))
        # a penalty no rival beats and a gap every count is under hold each green
        config = SimConfig(decision_interval=8.0, switch_penalty=1e9, max_gap=100.0,
                           fixed_splits=(12.0, 6.0))
        assert longest_greens(kind, junction, config, self.HORIZON) == longest
        assert longest_seen(junction, kind, config, self.HORIZON) == longest

    def test_a_one_phase_junction_never_leaves_its_green(self):
        lanes = make_junction().approach_lanes
        junction = Junction(id="J", approach_lanes=lanes,
                            phase_table=(SignalPhase(id="all", served_lanes=LANE_IDS),))
        for kind in CONTROLLER_KINDS:
            assert longest_greens(kind, junction, CFG, self.HORIZON) == {"all": math.inf}

    def test_a_split_of_one_step_starves_its_phase(self):
        # NS's slot holds 1 step of each 31 s cycle, and EW's 3 s yellow
        # before it takes 3
        config = SimConfig(fixed_splits=(1.0, 30.0))
        with pytest.raises(ValueError, match="fixed_splits starve phase NS: in some cycle"):
            longest_greens("fixed", make_junction(), config, self.HORIZON)


def fixed_junction(splits, yellows):
    """A junction of one phase per yellow, A, B, ..., each serving one busy
    lane of its own."""
    lanes = tuple(
        Lane(id=d, length=70.0, diagram=DIAGRAM, saturation_flow=0.5, inflow_rate=0.4)
        for d in LANE_IDS[:len(yellows)]
    )
    return Junction(id="J", approach_lanes=lanes, phase_table=tuple(
        SignalPhase(id="ABC"[i], served_lanes=(LANE_IDS[i],), yellow=yellow)
        for i, yellow in enumerate(yellows)
    ))


@st.composite
def fixed_timings(draw):
    """Splits for two or three phases, fractional ones among them, a yellow
    for each, 0 among them, a step and a horizon."""
    n = draw(st.integers(2, 3))
    split = st.sampled_from([2.5, 3.6, 7.0, 21.0]) | st.floats(0.2, 30.0)
    splits = tuple(draw(st.lists(split, min_size=n, max_size=n)))
    yellows = draw(st.lists(st.just(0.0) | st.floats(0.0, 4.0), min_size=n, max_size=n))
    dt = draw(st.sampled_from([0.3, 0.5, 0.7, 1.0, 2.0]))
    return splits, tuple(yellows), dt, draw(st.floats(1.0, 200.0))


def greens_by_cycle(junction, config, cycles):
    """The longest green run, in steps, of each (cycle it starts in, phase)
    over the first `cycles` cycles of a fixed-time run, leaving out the
    first green, before any yellow.  Step k is in cycle k * dt // cycle."""
    network = Network(junctions=(junction,))
    world = World(network, build_controller("fixed", network, config), seed=1, config=config)
    sig, dt, cycle = world.signals["J"], config.dt, sum(config.fixed_splits)
    greens: dict[tuple[float, str], int] = {}
    yellow_seen, key, run = False, None, 0  # key: the current green's; None in yellow
    while world.step_index * dt // cycle <= cycles:  # through the last cycle's final green
        k = world.step_index
        world.step()
        if sig.pending_phase is not None:
            yellow_seen, key = True, None
        elif yellow_seen:
            if key is None:  # a green begins
                key, run = (k * dt // cycle, sig.active_phase), 0
            run += 1
            greens[key] = max(greens.get(key, 0), run)
    return {key: steps for key, steps in greens.items() if key[0] < cycles}


class TestFixedSlots:
    """Soundness of fixed-time greens: a schedule that `longest_greens`
    accepts keeps its slots, so in every cycle it counts each phase is
    green, and the longest green seen is the one it claims."""

    @settings(max_examples=60, deadline=None)
    @given(fixed_timings())
    # 21.0 s is 70 steps of 0.3 s, yet slot 0 holds 69 in every cycle after
    # the first and slot 1 holds 13: the step at each cycle start lands just
    # under the cycle and goes to the last slot
    @example(((21.0, 3.6), (3.0, 3.0), 0.3, 100.0))
    # slot 1 holds 6 or 7 steps from cycle to cycle
    @example(((7.0, 4.5), (3.0, 3.0), 0.7, 200.0))
    # slot 1 holds 2 or 3 steps, and the 2 s yellow takes 2
    @example(((7.0, 2.5), (2.0, 2.0), 1.0, 100.0))
    def test_an_accepted_schedule_greens_every_phase_in_every_cycle(self, drawn):
        splits, yellows, dt, horizon = drawn
        junction, config = fixed_junction(splits, yellows), SimConfig(dt=dt, fixed_splits=splits)
        try:
            longest = longest_greens("fixed", junction, config, horizon)
        except ValueError:
            return
        cycles = max(3, math.ceil(horizon / sum(splits)))
        greens = greens_by_cycle(junction, config, cycles)
        ids = [phase.id for phase in junction.phase_table]
        assert set(greens) == {
            (q, pid) for q in range(cycles) for pid in ids if (q, pid) != (0, ids[0])
        }
        for pid in ids:
            assert max(n for (q, p), n in greens.items() if p == pid) * dt == longest[pid]

    def test_a_slot_counted_at_an_inexact_step(self):
        # the 10-step yellows take 59 steps of slot 0 and 3 of slot 1
        junction = fixed_junction((21.0, 3.6), (3.0, 3.0))
        config = SimConfig(dt=0.3, fixed_splits=(21.0, 3.6))
        assert longest_greens("fixed", junction, config, 100.0) == {"A": 59 * 0.3, "B": 3 * 0.3}

    def test_a_slot_that_only_equals_its_yellow_in_some_cycle_starves_its_phase(self):
        junction = fixed_junction((7.0, 2.5), (2.0, 2.0))
        config = SimConfig(fixed_splits=(7.0, 2.5))
        with pytest.raises(ValueError, match="fixed_splits starve phase B: "):
            longest_greens("fixed", junction, config, 100.0)


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

        net = three_junction_reference(inflows_vph=dict.fromkeys(DIRECTIONS, 0.0))
        ctrl = build_controller("adaptive", net, CFG)
        world = World(net, HOLD, seed=1, config=CFG)
        for _ in range(10):  # past min green
            world.step()
        # an empty network keeps every phase: each junction is decided and
        # gets no command
        assert ctrl.decide(world, 0.0) == {}
        assert ctrl._last_decision == {"J1": 0.0, "J2": 0.0, "J3": 0.0}
        # within the decision interval nothing is decided again
        assert ctrl.decide(world, 2.0) == {}
        assert ctrl._last_decision == {"J1": 0.0, "J2": 0.0, "J3": 0.0}
        assert ctrl.decide(world, 5.0) == {}
        assert ctrl._last_decision == {"J1": 5.0, "J2": 5.0, "J3": 5.0}
