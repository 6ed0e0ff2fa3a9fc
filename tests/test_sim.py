import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from sybil_atsc import scenario
from sybil_atsc.attack import AttackPlan, inject
from sybil_atsc.controllers import build_controller
from sybil_atsc.metrics import trip_records, trips_to_text
from sybil_atsc.mitigation import MitigationPolicy, filter_perception
from sybil_atsc.networks import grid, three_junction_reference
from sybil_atsc.scenario import parse_scenario
from sybil_atsc.sim import SimConfig, VehicleRecord, World, run
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
)

from conftest import REPO_ROOT, SCENARIO_DIR

DIAGRAM = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)


def single_junction_network(*, saturation=0.5, inflow=0.0, length=150.0):
    """One junction with a served lane 'a' and a rival lane 'b'."""
    lanes = (
        Lane(id="a", length=length, diagram=DIAGRAM,
             saturation_flow=saturation, inflow_rate=inflow),
        Lane(id="b", length=length, diagram=DIAGRAM,
             saturation_flow=saturation, inflow_rate=0.0),
    )
    phases = (
        SignalPhase(id="go_a", served_lanes=("a",)),
        SignalPhase(id="go_b", served_lanes=("b",)),
    )
    junction = Junction(id="J", approach_lanes=lanes, phase_table=phases)
    return Network(junctions=(junction,))


def feeder_network():
    """Lane 'a' at J1 discharges into the 30 m lane 'c' at J2, which starts red."""

    def lane(lane_id, length=150.0):
        return Lane(id=lane_id, length=length, diagram=DIAGRAM, saturation_flow=0.5)

    j1 = Junction(
        id="J1",
        approach_lanes=(lane("a"), lane("b")),
        phase_table=(SignalPhase(id="go_a", served_lanes=("a",)),
                     SignalPhase(id="go_b", served_lanes=("b",))),
    )
    j2 = Junction(
        id="J2",
        approach_lanes=(lane("c", 30.0), lane("d")),
        phase_table=(SignalPhase(id="go_d", served_lanes=("d",)),
                     SignalPhase(id="go_c", served_lanes=("c",))),
    )
    return Network(junctions=(j1, j2), adjacency={"a": "c"})


class HoldController:
    """Keeps whatever phase each junction starts in."""

    def decide(self, world, t):
        return {}


class CommandController:
    """Always commands one fixed phase id."""

    def __init__(self, phase_id):
        self.phase_id = phase_id

    def decide(self, world, t):
        return {j.id: self.phase_id for j in world.network.junctions}


class PlanController:
    """Always commands one fixed phase per junction."""

    def __init__(self, plan):
        self.plan = plan

    def decide(self, world, t):
        return dict(self.plan)


def preload_queue(world, lane_id, n):
    """Admit n vehicles one free-flow time early: they reach the stop line
    at t = 0, join the queue in the first step and wait from it on."""
    ls = world.lane_states[lane_id]
    for i in range(n):
        veh = VehicleRecord(id=f"pre#{i}", spawn_time=0.0)
        ls.admit(veh, -ls.lane.free_flow_time, world.config.flow_window)
    return ls


class TestStep:
    def test_empty_network_step_has_no_vehicle_events(self):
        world = World(single_junction_network(), HoldController(), seed=1)
        events = world.step()
        assert [e for e in events if e.kind != "phase_change"] == []

    def test_fractional_discharge_accumulates(self):
        # saturation 0.5 veh/s: the first second banks half a vehicle, the
        # second second completes exactly one
        world = World(single_junction_network(), HoldController(), seed=1)
        preload_queue(world, "a", 3)
        first = [e for e in world.step() if e.kind == "discharge"]
        second = [e for e in world.step() if e.kind == "discharge"]
        assert len(first) == 0
        assert len(second) == 1

    def test_discharge_rate_matches_saturation(self):
        world = World(single_junction_network(), HoldController(), seed=1)
        preload_queue(world, "a", 10)
        discharged = sum(
            1 for _ in range(20) for e in world.step() if e.kind == "discharge"
        )
        assert discharged == 10  # 0.5 veh/s over 20 s

    def test_red_blocks_discharge_and_accrues_waiting(self):
        world = World(single_junction_network(), CommandController("go_b"), seed=1)
        ls = preload_queue(world, "a", 4)
        for _ in range(10):
            events = world.step()
            assert [e for e in events if e.kind == "discharge"] == []
        # yellow takes 3 steps, then 7 red steps; queued the whole 10
        assert ls.queued_waits(world.step_index, world.step_sums) == [10.0] * 4

    def test_wait_starts_at_the_first_whole_step_in_the_queue(self):
        # at dt = 0.3 the end of step 5 (5 * 0.3 + 0.3) rounds above the
        # start of step 6 (6 * 0.3): a vehicle reaching the stop line in
        # that gap joins the queue in step 5 but first waits in step 7
        cfg = SimConfig(dt=0.3)
        world = World(
            single_junction_network(length=35.0), HoldController(), seed=1, config=cfg
        )
        ls = preload_queue(world, "b", 1)  # never served; waits from step 0
        reached = 5 * 0.3 + 0.3 + 1e-9
        assert reached > 6 * 0.3 + 1e-9 and ls.lane.free_flow_time == 1.0
        ls.admit(VehicleRecord(id="v", spawn_time=0.0), reached - 1.0, cfg.flow_window)
        waits, waited = [], 0.0
        for _ in range(8):
            world.step()
            waited += 0.3
            waits.append(ls.queued_waits(world.step_index, world.step_sums))
        assert [len(w) for w in waits] == [1] * 5 + [2] * 3
        assert [w[1] for w in waits[5:]] == [0.0, 0.0, 0.3]
        assert waits[-1][0] == waited

    def test_full_downstream_lane_blocks_discharge(self):
        # 'c' holds 4 vehicles at jam density and never gets green, so only
        # 4 of the 10 queued on 'a' may leave, however long 'a' is green
        world = World(feeder_network(), HoldController(), seed=1)
        ls = preload_queue(world, "a", 10)
        dst = world.lane_states["c"]
        assert dst.lane.jam_capacity == 4
        for _ in range(60):
            world.step()
        assert dst.occupancy == 4
        assert len(ls.queue) == 6
        assert world.completed == []

    def test_queue_join_after_free_flow_travel(self):
        world = World(single_junction_network(), CommandController("go_b"), seed=1)
        ls = world.lane_states["a"]
        veh = VehicleRecord(id="v", spawn_time=0.0)
        ls.admit(veh, 0.0, world.config.flow_window)  # reaches the stop line at 4.29 s
        queued = []
        for _ in range(8):
            world.step()
            queued.append([v for _, v in ls.queue])
        # it joins in the step [4 s, 5 s), the first to end past 4.29 s
        assert queued == [[]] * 4 + [[veh]] * 4


class TestEntryBacklog:
    def test_backlog_enters_in_draw_order_when_the_lane_has_room(self):
        # 2 veh/s into a 30 m lane that holds 4 and discharges 0.5 veh/s:
        # most of the draws wait off the lane
        world = World(
            single_junction_network(inflow=2.0, length=30.0), HoldController(), seed=1
        )
        ls = world.lane_states["a"]
        assert ls.lane.jam_capacity == 4
        seen = set()
        entered = []
        for _ in range(120):
            t_end = world.time + world.config.dt
            world.step()
            new = [veh for _, veh in ls.travelling if veh.id not in seen]
            seen.update(veh.id for veh in new)
            entered += new
            assert ls.backlog == ls.arrived - len(entered)
            assert all(veh.spawn_time == t_end for veh in new)
        assert [veh.id for veh in entered] == [f"a#{n}" for n in range(1, len(entered) + 1)]
        assert ls.backlog > 100 and len(world.completed) > 50
        result = run(world, 200.0)
        assert result.censored == world.in_network + ls.backlog


class TestEventCounts:
    """The step's events by kind, as the benchmark's tracer counts them."""

    COUNTS = {
        "adaptive_clean": dict(
            phase_change=536, spawn=3227, queue_join=8563, discharge=8559,
            trip_complete=3204,
        ),
        "grid_clean": dict(
            phase_change=2103, spawn=393, queue_join=3436, discharge=3404,
            trip_complete=311,
        ),
    }

    @pytest.mark.parametrize(
        "path",
        [SCENARIO_DIR / "adaptive_clean.scn",
         REPO_ROOT / "perfbench" / "scenarios" / "grid_clean.scn"],
        ids=lambda p: p.stem,
    )
    def test_counts_by_kind(self, monkeypatch, path):
        tally = Counter()
        worlds = []

        class TallyWorld(World):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                worlds.append(self)

            def step(self):
                events = super().step()
                tally.update(event.kind for event in events)
                return events

        monkeypatch.setattr(scenario, "World", TallyWorld)
        scenario.run_single(scenario.parse_scenario(path), 1)
        assert tally == self.COUNTS[path.stem]
        (world,) = worlds
        assert tally["trip_complete"] == len(world.completed)


class TestSignalMachine:
    def test_switch_goes_through_yellow(self):
        world = World(single_junction_network(), CommandController("go_b"), seed=1)
        sig = world.signals["J"]
        world.step()
        assert sig.pending_phase == "go_b" and sig.active_phase == "go_a"
        world.step()
        world.step()
        assert sig.pending_phase == "go_b"  # 3 s yellow still running
        world.step()
        assert sig.pending_phase is None and sig.active_phase == "go_b"

    def test_no_discharge_during_yellow(self):
        world = World(single_junction_network(), CommandController("go_b"), seed=1)
        preload_queue(world, "a", 5)
        events = []
        for _ in range(4):
            events += world.step()
        assert [e for e in events if e.kind == "discharge"] == []

    def test_command_for_unknown_junction_raises(self):
        world = World(single_junction_network(), PlanController({"J9": "J9:NS"}), seed=1)
        with pytest.raises(KeyError, match="J9"):
            world.step()

    def test_command_for_unknown_phase_raises(self):
        world = World(single_junction_network(), CommandController("go_c"), seed=1)
        with pytest.raises(KeyError, match="go_c"):
            world.step()

    def test_command_for_unknown_phase_raises_during_yellow(self):
        class Script:
            commands = iter(["go_b", "nope"])

            def decide(self, world, t):
                return {"J": next(self.commands)}

        world = World(single_junction_network(), Script(), seed=1)
        world.step()
        assert world.signals["J"].pending_phase == "go_b"
        with pytest.raises(KeyError, match="nope"):
            world.step()

    @pytest.mark.parametrize("kind", ["fixed", "gap_actuated", "adaptive"])
    @pytest.mark.parametrize("dt", [1.0, 0.3])
    @pytest.mark.parametrize(
        "build", [lambda: grid(4, 4), three_junction_reference], ids=["grid", "arterial"]
    )
    def test_only_green_served_lanes_hold_credit(self, build, dt, kind):
        # entering yellow drops the credit of the green phase's lanes only,
        # which is exact while no other lane can hold any
        net = build()
        cfg = SimConfig(dt=dt)
        world = World(net, build_controller(kind, net, cfg), seed=3, config=cfg)
        served = {
            j.id: {ph.id: ph.served_lanes for ph in j.phase_table} for j in net.junctions
        }
        credited = 0
        for _ in range(1500):
            world.step()
            for junction in net.junctions:
                sig = world.signals[junction.id]
                yellow = sig.pending_phase is not None
                green = () if yellow else served[junction.id][sig.active_phase]
                for lane in junction.approach_lanes:
                    if world.lane_states[lane.id].discharge_credit != 0.0:
                        assert lane.id in green, (world.time, lane.id)
                        credited += 1
        assert credited > 0


class TestRun:
    def test_zero_horizon_empty_log(self):
        net = three_junction_reference()
        world = World(net, build_controller("fixed", net, SimConfig()), seed=1)
        result = run(world, 0.0)
        assert result.trips == []

    def test_determinism_same_seed(self):
        net = three_junction_reference()
        logs = []
        for _ in range(2):
            world = World(
                net, build_controller("adaptive", net, SimConfig()), seed=11
            )
            result = run(world, 1200.0)
            logs.append(trips_to_text(trip_records(result.trips)))
        assert logs[0] == logs[1]

    def test_entry_log_spans_at_most_the_flow_window(self, scenario_dir):
        # no hook reads flows during this run, so only the trim on entry
        # keeps the per-lane entry log bounded
        config = parse_scenario(scenario_dir / "adaptive_clean.scn")
        net = config.build_network()
        sim_cfg = config.sim_config()
        world = World(
            net, build_controller(config.controller, net, sim_cfg), seed=1,
            config=sim_cfg,
        )
        run(world, 5000.0)
        for ls in world.lane_states.values():
            span = ls.entry_times[-1] - ls.entry_times[0] if ls.entry_times else 0.0
            assert span <= sim_cfg.flow_window

    def test_different_seeds_differ(self):
        net = three_junction_reference()
        logs = []
        for seed in (1, 2):
            world = World(
                net, build_controller("adaptive", net, SimConfig()), seed=seed
            )
            logs.append(trips_to_text(trip_records(run(world, 1200.0).trips)))
        assert logs[0] != logs[1]

    def test_each_lane_state_owns_its_stream_and_downstream(self):
        net = three_junction_reference()
        world = World(net, HoldController(), seed=1)
        for lid, ls in world.lane_states.items():
            assert (ls.arrivals is not None) == (ls.lane.inflow_rate > 0.0)
            dst = net.adjacency.get(lid)
            assert ls.downstream is (None if dst is None else world.lane_states[dst])

    def test_vehicle_conservation_every_step(self):
        net = three_junction_reference()
        world = World(net, build_controller("adaptive", net, SimConfig()), seed=5)
        for _ in range(600):
            world.step()
            entered = sum(ls.arrived - ls.backlog for ls in world.lane_states.values())
            assert entered == world.in_network + len(world.completed)

    def test_quiescent_when_no_inflow(self):
        net = three_junction_reference(
            inflows_vph={"top": 0.0, "bottom": 0.0, "left": 0.0, "right": 0.0}
        )
        for kind in ("fixed", "gap_actuated", "adaptive"):
            world = World(net, build_controller(kind, net, SimConfig()), seed=1)
            result = run(world, 400.0)
            assert result.trips == [] and result.censored == 0

    def test_wait_bounded_by_trip_duration(self):
        net = three_junction_reference()
        world = World(net, build_controller("adaptive", net, SimConfig()), seed=3)
        result = run(world, 1500.0)
        assert result.trips
        for veh in result.trips:
            assert veh.accumulated_wait <= veh.depart_time - veh.spawn_time + 1e-9

    def test_spillback_guard(self):
        # J2 holds the arterial red while J1 and J3 keep it green, so both
        # arterial lanes into J2 fill and the lanes feeding them must stop
        net = three_junction_reference(
            inflows_vph={"top": 800.0, "bottom": 800.0, "left": 1400.0, "right": 1400.0}
        )
        plan = {"J1": "J1:EW", "J2": "J2:NS", "J3": "J3:EW"}
        world = World(net, PlanController(plan), seed=2)
        blocked = 0
        for _ in range(1500):
            world.step()
            for ls in world.lane_states.values():
                # queue can never exceed what fits on the lane at jam density
                assert len(ls.queue) <= ls.lane.jam_capacity
                assert ls.occupancy <= ls.lane.jam_capacity
                # a lane that ends its step with a queue and a whole vehicle
                # of credit was stopped by its full downstream lane
                blocked += bool(ls.queue) and ls.discharge_credit >= 1.0 - 1e-9
        assert world.lane_states["J2:W"].occupancy == world.lane_states["J2:W"].lane.jam_capacity
        assert blocked > 0


class TestMaintainedState:
    """The counts and waits the world keeps agree with a recount every step."""

    @pytest.mark.parametrize("dt", [1.0, 0.3])
    @pytest.mark.parametrize("kind", ["fixed", "gap_actuated", "adaptive"])
    def test_occupancy_and_waits_match_a_recount(self, kind, dt):
        net = grid(
            3, 3, inflows_vph={"top": 500.0, "bottom": 500.0, "left": 900.0, "right": 900.0}
        )
        cfg = SimConfig(dt=dt)
        world = World(net, build_controller(kind, net, cfg), seed=4, config=cfg)
        waited: dict[str, float] = {}  # vehicle id -> dt added per queued step
        queued_before = {lid: set() for lid in world.lane_states}
        done = 0
        while world.time < 600.0:
            world.step()
            for lid, ls in world.lane_states.items():
                assert ls.occupancy == len(ls.travelling) + len(ls.queue)
                # a vehicle waits through a step it starts in the queue
                # and does not leave it in
                queued = [veh for _, veh in ls.queue]
                for veh in queued:
                    if veh.id in queued_before[lid]:
                        waited[veh.id] = waited.get(veh.id, 0.0) + dt
                assert ls.queued_waits(world.step_index, world.step_sums) == [
                    waited.get(veh.id, 0.0) for veh in queued
                ]
                queued_before[lid] = {veh.id for veh in queued}
            for veh in world.completed[done:]:
                assert veh.accumulated_wait == waited.get(veh.id, 0.0)
            done = len(world.completed)
        assert done > 0 and any(waited.values())


class TestLifetime:
    @pytest.mark.parametrize(
        "build", [lambda: grid(3, 3), three_junction_reference], ids=["grid", "arterial"]
    )
    def test_finished_world_is_freed_by_reference_counting(self, build):
        # a reference cycle through a lane would keep the finished world's
        # vehicles alive until a collection, and raise a suite's peak memory
        net = build()
        gc.disable()
        try:
            world = World(net, build_controller("adaptive", net, SimConfig()), seed=1)
            run(world, 100.0)
            assert world.completed
            parts = [world, *world.lane_states.values(), *world.signals.values()]
            refs = [weakref.ref(part) for part in parts]
            del world, parts
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


BOOKKEEPING_SCENARIOS = sorted(SCENARIO_DIR.glob("*.scn")) + [
    REPO_ROOT / "perfbench" / "scenarios" / "grid_clean.scn"
]


class TestBookkeeping:
    """What the step skips is exactly what it may skip, after every step."""

    @pytest.mark.parametrize("path", BOOKKEEPING_SCENARIOS, ids=lambda p: p.stem)
    def test_cruising_lanes_and_idle_junctions(self, monkeypatch, path):
        idle = []

        class CheckedWorld(World):
            def step(self):
                events = super().step()
                cruising = {
                    lid: ls.travelling
                    for lid, ls in self.lane_states.items()
                    if ls.travelling
                }
                assert self._cruising.keys() == cruising.keys()
                assert all(self._cruising[lid] is d for lid, d in cruising.items())
                for sig in self.signals.values():
                    if sig.busy:
                        continue
                    idle.append(sig)
                    assert sig.pending_phase is None
                    for ls, _, cap in sig.phases[sig.active_phase].served:
                        assert not ls.queue and ls.discharge_credit == cap
                return events

        assert len(BOOKKEEPING_SCENARIOS) == 7
        monkeypatch.setattr(scenario, "World", CheckedWorld)
        config = replace(scenario.parse_scenario(path), horizon=600.0)
        assert scenario.run_single(config, 1).trips_completed > 0
        assert idle  # some green junction had nothing to discharge


class TestPerception:
    def test_counts_and_speeds(self):
        world = World(single_junction_network(), HoldController(), seed=1)
        ls = world.lane_states["a"]
        veh = VehicleRecord(id="t", spawn_time=0.0)
        ls.admit(veh, 0.0, world.config.flow_window)  # still cruising
        preload_queue(world, "a", 1)  # at the stop line
        obs = world.observe()
        assert obs.counts["a"] == 2.0
        assert obs.counts["b"] == 0.0

    def test_pipeline_composes_injection_then_trust(self):
        # perceived count = weight * (real + phantom), per lane
        plan = AttackPlan(
            per_lane_rate={"a": 1.0}, start_time=0.0, duration=100.0,
            duty_on=10.0, duty_off=0.0, total_budget=1.0,
        )
        policy = MitigationPolicy(kind="optimal", weights={"a": 0.6, "b": 1.0})
        world = World(
            single_junction_network(),
            HoldController(),
            seed=1,
            attack_injector=lambda t, dt: inject(plan, t, dt),
            perception_filter=lambda obs: filter_perception(obs, policy),
        )
        preload_queue(world, "a", 2)
        world.step_index = 3
        obs = world.observe()  # 4 phantoms visible by t=4
        assert obs.counts["a"] == pytest.approx(0.6 * (2 + 4))

    def test_phantoms_never_touch_physical_state(self):
        plan = AttackPlan(
            per_lane_rate={"a": 2.0}, start_time=0.0, duration=1e9,
            duty_on=5.0, duty_off=5.0, total_budget=2.0,
        )
        world = World(
            single_junction_network(inflow=0.05),
            HoldController(),
            seed=9,
            attack_injector=lambda t, dt: inject(plan, t, dt),
        )
        clean = World(single_junction_network(inflow=0.05), HoldController(), seed=9)
        for _ in range(400):
            world.step()
            clean.step()
        assert trips_to_text(trip_records(world.completed)) == trips_to_text(
            trip_records(clean.completed)
        )
        assert [(ls.arrived, ls.backlog) for ls in world.lane_states.values()] == [
            (ls.arrived, ls.backlog) for ls in clean.lane_states.values()
        ]


class SpyTaps:
    """An attack injector and a perception filter that count their calls.

    The plan starts at 60 s on the north-south lanes of the reference
    network; a hook swaps the filter's trust weights every 150 s.
    """

    def __init__(self):
        self.plan = AttackPlan(
            per_lane_rate={"J1:N": 0.4, "J2:S": 0.3, "J3:N": 0.5},
            start_time=60.0, duration=1e9, duty_on=40.0, duty_off=20.0,
            total_budget=1.2,
        )
        self.policy = None
        self.injected = 0
        self.filtered = 0

    def inject(self, t, dt):
        self.injected += 1
        return inject(self.plan, t, dt)

    def filter(self, obs):
        self.filtered += 1
        return filter_perception(obs, self.policy)

    def swap_policy(self, world, t):
        trust = 0.3 if int(t // 150.0) % 2 else 0.8
        weights = {lid: trust for lid in ("J1:N", "J2:S", "J3:N")}
        self.policy = MitigationPolicy(kind="optimal", weights=weights)

    def world(self, controller_kind, *, eager=False):
        net = three_junction_reference()
        controller = build_controller(controller_kind, net, SimConfig())
        world = World(
            net,
            EagerSnapshot(controller) if eager else controller,
            seed=4,
            attack_injector=self.inject,
            perception_filter=self.filter,
        )
        world.add_hook(self.swap_policy, start=0.0, interval=150.0)
        return world


class EagerSnapshot:
    """Builds the snapshot on every step, then lets the wrapped controller
    decide on that very snapshot."""

    def __init__(self, inner):
        self.inner = inner

    def decide(self, world, t):
        obs = world.observe()
        world.observe = lambda: obs  # shadows the method for this decision
        try:
            return self.inner.decide(world, t)
        finally:
            del world.observe


class RecordingController:
    """Delegates, and keeps each step's commands."""

    def __init__(self, inner):
        self.inner = inner
        self.commands = []

    def decide(self, world, t):
        commands = self.inner.decide(world, t)
        self.commands.append(commands)
        return commands


class TestPerceptionPull:
    HORIZON = 900.0

    def test_fixed_time_never_calls_a_tap(self):
        taps = SpyTaps()
        run(taps.world("fixed"), self.HORIZON)
        assert (taps.injected, taps.filtered) == (0, 0)

    def test_adaptive_observes_once_exactly_when_a_junction_can_decide(self):
        taps = SpyTaps()
        world = taps.world("adaptive")
        world.controller = recorder = RecordingController(world.controller)
        observed = []
        while world.time + 1e-9 < self.HORIZON:
            world._fire_hooks()
            before = taps.injected
            world.step()
            observed.append(taps.injected - before)
        assert taps.filtered == taps.injected
        assert set(observed) == {0, 1}
        # the pressure controller commands every due junction that is out
        # of yellow and past its min green, and no other
        assert observed == [int(bool(cmds)) for cmds in recorder.commands]

    def test_trips_match_an_eager_snapshot_on_every_step(self):
        lazy, eager = SpyTaps(), SpyTaps()
        lazy_trips = run(lazy.world("adaptive"), self.HORIZON).trips
        eager_trips = run(eager.world("adaptive", eager=True), self.HORIZON).trips
        assert eager.injected == 900  # one snapshot per 1 s step
        assert 0 < lazy.injected < eager.injected
        assert lazy_trips == eager_trips  # every field of every record, exactly
        # the taps move decisions, so the comparison above can fail
        net = three_junction_reference()
        clean = World(net, build_controller("adaptive", net, SimConfig()), seed=4)
        assert run(clean, self.HORIZON).trips != lazy_trips
