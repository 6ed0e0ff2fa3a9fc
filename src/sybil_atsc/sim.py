"""Time-stepped mesoscopic queue simulator for signalised networks.

Vehicles cross a lane at free speed, wait in a vertical FIFO queue at the
stop line, and discharge at the lane's saturation flow while the lane has
green, so queues spill back when a downstream lane fills.  Controllers
never read the physical state directly: a control decision that needs
counts pulls a perception snapshot, one list of vehicle counts in the
world's lane order (`network.lanes()`), which an attack tap may inflate
with phantom vehicles and a mitigation tap may re-weight; a step whose
decision reads no counts builds no snapshot.  Physical motion depends only
on the arrival draws and the signal commands, so perception corruption
cannot move a single real vehicle unless it changes a command.  The
snapshot is a `PerceivedObservation` named tuple of a fresh count list and
the world's lane-id tuple, so a caller owns its list: changing it moves no
lane count and no later snapshot.

A `World` compiles each junction's phase table onto its lane states when
it is built, and that junction record, its `SignalState`, is the one phase
table the step and the controllers read: each phase by id, in table order,
with its served lane states, their per-step discharge constants and the id
of the next phase.  Each phase also carries what a control decision would
otherwise work out again on every step: a reader of its served lanes'
counts in a snapshot, which holds their snapshot indices, its rivals (the
other phases in table order, each with its reader) and its green bounds
with the timing tolerance applied.  Each lane state owns its arrival
stream and a link to its downstream lane's state, compiles its lane's id,
jam capacity and free-flow time the same way, and keeps its backlog of
vehicles drawn but not yet let in; its vehicle count lives in the world's
shared `counts` dict.  Per vehicle, the step reads only those compiled
values and that dict, never a property or a `lane.*` chain: a spawn or a
discharge into a lane tests `counts[lane id] < capacity`, exact because
counts are whole floats moved by 1.0 from 0.0.  Each vehicle has one
slotted record, named `<origin lane>#<n>`.  A vehicle counts the steps it
sits in queues, and its waiting time is written once, when its trip ends.
Times are kept the same way: the world's `step_sums` list holds the
sequential sums 0.0 + dt + ... + dt, one entry more per step, and a
junction records only `since`, the step its green or yellow began, so its
time in it is a list index no step has to advance.

A step visits only what can change in it.  Yellow completions walk the
signals in yellow, which the world lists from the decision that sets a
pending phase to the step that clears it.  Arrivals are drawn 1,024 steps
at a time and read only at the steps that have one; the chunk size moves
no arrival.  Queue joins walk the lanes that have cruisers, which the
world keeps by lane id as vehicles enter and reach the stop line.
Discharge walks, in the world's junction order, the served lanes of each
green junction whose busy flag is set.  A junction's flag is set from the
yellow before its green, and from any queue join on one of its
approaches, until a walk leaves every served lane with an empty queue and
full credit, a state the walk would not change.  On the 10x10 grid about
40 of the 400 lanes have cruisers in a step, and most green junctions have
nothing to discharge.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .traffic_model import Lane, Network, SignalPhase, validate_network

__all__ = [
    "SimConfig",
    "VehicleRecord",
    "LaneState",
    "SignalState",
    "PerceivedObservation",
    "Event",
    "World",
    "SimResult",
    "run",
    "network_problems",
]

_ARRIVAL_CHUNK = 1024
# numpy's POISSON_LAM_MAX, int64 max - 10 sqrt(int64 max), which it does not
# export: Generator.poisson raises "lam value too large" above it
POISSON_LAM_MAX = 9.223372006484771e18
# a time on the step clock, dt added step by step, can round just short of a bound it has reached
TIME_TOL = 1e-9
# discharge credit, sat * dt added step by step, can round just short of a whole vehicle
CREDIT_TOL = 1e-9
_ONE_VEHICLE = 1.0 - CREDIT_TOL  # the least credit that discharges a vehicle


@dataclass(frozen=True)
class SimConfig:
    """The simulation's knobs.  Construction refuses, in one ValueError naming each, a dt
    outside (0, inf), a flow_window not > 0, a decision_interval not >= 0 and a NaN
    max_gap or switch_penalty; `controllers.FixedSchedule` checks fixed_splits."""

    dt: float = 1.0
    flow_window: float = 300.0  # rolling window for per-lane flow, seconds
    max_gap: float = 3.0  # gap-actuated: extend green below this headway
    decision_interval: float = 5.0  # pressure controller decision cadence
    switch_penalty: float = 2.0  # perceived vehicles a phase change must beat
    fixed_splits: tuple[float, ...] = (40.0, 20.0)

    def __post_init__(self) -> None:
        # each rule is written `x > b`, so that NaN breaks it too; a window
        # of 0 spans no time, and every flow read over it is 0
        problems = [f"{name} must be {bound}, got {getattr(self, name)}" for name, bound, holds in (
            ("dt", "> 0 and finite", 0.0 < self.dt < math.inf),
            ("flow_window", "> 0", self.flow_window > 0.0),
            ("decision_interval", ">= 0", self.decision_interval >= 0.0),
            ("max_gap", "a number", not math.isnan(self.max_gap)),
            ("switch_penalty", "a number", not math.isnan(self.switch_penalty)),
        ) if not holds]
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(slots=True)
class VehicleRecord:
    """One real vehicle and its trip, named `<origin lane>#<n>`.

    Phantom vehicles exist only inside perception snapshots and never
    become records, so every record is a real vehicle.
    """

    id: str
    spawn_time: float
    depart_time: float | None = None
    accumulated_wait: float = 0.0  # written when the trip ends; 0.0 before
    free_flow_time: float = 0.0
    wait_steps: int = 0  # steps spent queued, up to the last queue it left


class Event(NamedTuple):
    """A kind of thing a step did, one shared event per kind: the benchmark's tracer
    reads only kinds, and the list goes once the package counts its own work."""

    kind: str


_PHASE_CHANGE, _SPAWN, _QUEUE_JOIN, _DISCHARGE, _TRIP_COMPLETE = map(
    Event, ("phase_change", "spawn", "queue_join", "discharge", "trip_complete")
)


@dataclass
class LaneState:
    """Physical contents of one lane: cruisers, the stop-line queue, flow.

    A lane with exogenous inflow owns its Poisson arrival stream, and its
    `backlog` counts the vehicles drawn but not let in yet; a lane with a
    downstream lane hands discharged vehicles to its state.  Vehicles enter
    through `admit` and leave through `leave`, which keep the lane's entry
    in `counts` equal to len(travelling) + len(queue).  The lanes of one
    world share `counts`, so the perception snapshot is a list of its
    values, and `cruising`, which maps the id of each lane with cruisers to
    its `travelling` deque: `admit` adds the lane with its first cruiser and
    the world's step drops it when its last one joins the queue.  The map holds
    deques, not lane states, so no lane refers back to itself and a finished
    world is freed by reference counting alone.
    """

    lane: Lane
    counts: dict[str, float] = field(default_factory=dict, repr=False)
    cruising: dict[str, deque] = field(default_factory=dict, repr=False)
    downstream: LaneState | None = field(default=None, repr=False)  # None = sink
    arrivals: np.random.Generator | None = None  # None = no exogenous inflow
    travelling: deque = field(default_factory=deque)  # (queue_join_time, veh)
    queue: deque = field(default_factory=deque)  # (first step waited, veh)
    discharge_credit: float = 0.0
    entry_times: deque = field(default_factory=deque)  # vehicles entering the lane
    arrived: int = 0  # vehicles drawn so far
    backlog: int = 0  # vehicles drawn that have not entered yet
    next_arrival: int = 0  # the next step whose draw is not known to be 0
    _draws: deque = field(default_factory=deque, init=False, repr=False)  # (step, n > 0)
    _drawn: int = field(default=0, init=False, repr=False)  # steps drawn so far
    # the lane's id and constants, compiled once: the step reads them per
    # vehicle.  The class is not slotted: that would drop the weak references
    # the lifetime test takes, which weakref_slot restores only from 3.11
    id: str = field(init=False, repr=False)
    jam_capacity: int = field(init=False, repr=False)
    free_flow_time: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.id = self.lane.id
        self.jam_capacity = self.lane.jam_capacity
        self.free_flow_time = self.lane.free_flow_time
        self.counts[self.id] = 0.0

    @property
    def occupancy(self) -> int:
        """Vehicles on the lane, cruising or queued."""
        return int(self.counts[self.id])

    def arrive(self, step: int, dt: float) -> None:
        """Add the Poisson arrivals of `step` to the entry backlog.

        Each step takes one draw of the lane's stream, drawn `_ARRIVAL_CHUNK`
        steps at a time; only the steps with arrivals are kept, so the world
        calls this at `next_arrival` and skips the steps in between.  numpy
        draws a Poisson sample at a time from the stream, so the chunk size
        moves no arrival; a small one leaves few draws past the horizon.
        """
        draws = self._draws
        if not draws:
            lam = self.lane.inflow_rate * dt
            chunk = self.arrivals.poisson(lam, _ARRIVAL_CHUNK)
            hits = np.flatnonzero(chunk)
            draws.extend(zip((self._drawn + hits).tolist(), chunk[hits].tolist()))
            self._drawn += _ARRIVAL_CHUNK
        if draws and draws[0][0] == step:
            n = draws.popleft()[1]
            self.arrived += n
            self.backlog += n
        self.next_arrival = draws[0][0] if draws else self._drawn

    def admit(self, veh: VehicleRecord, t: float, window: float) -> None:
        """Let a vehicle enter at t, cruising to the stop line at free speed.

        The entry is logged for the flow reading, and entries no window can
        reach any more are forgotten: flow reads come at times >= t, so
        dropping what falls out of the window now leaves every later
        reading unchanged.
        """
        fft = self.free_flow_time
        veh.free_flow_time += fft
        travelling = self.travelling
        if not travelling:
            self.cruising[self.id] = travelling
        travelling.append((t + fft, veh))
        self.counts[self.id] += 1.0
        entry_times = self.entry_times
        entry_times.append(t)
        cutoff = t - window - TIME_TOL
        while entry_times[0] < cutoff:
            entry_times.popleft()

    def leave(self, step: int) -> VehicleRecord:
        """Take the head of the queue out in `step`; count its waiting steps.

        Queued vehicles have speed exactly 0, so the usual "waiting when
        slower than 0.1 m/s" definition reduces to queue membership: the
        vehicle waited in every step from the first one its queue entry
        names up to, not including, this one.
        """
        first, veh = self.queue.popleft()
        self.counts[self.id] -= 1.0
        if step > first:
            veh.wait_steps += step - first
        return veh

    def queued_waits(self, step: int, sums: list[float]) -> list[float]:
        """Each queued vehicle's waiting time before `step`, queue order."""
        return [
            sums[veh.wait_steps + max(0, step - first)] for first, veh in self.queue
        ]

    def measured_flow(self, now: float, window: float) -> float:
        """Flow of vehicles entering the lane over the rolling window, veh/s.

        Entry counting matches what a roadside unit logging approach
        messages would measure, and keeps the reading meaningful while the
        stop line is starved: demand does not vanish just because service
        stopped.
        """
        span = min(now, window)
        if span <= 0.0:
            return 0.0
        cutoff = now - window
        while self.entry_times and self.entry_times[0] < cutoff - TIME_TOL:
            self.entry_times.popleft()
        return len(self.entry_times) / span

    def queued_delay_mean(self, step: int, sums: list[float]) -> float:
        if not self.queue:
            return 0.0
        return sum(self.queued_waits(step, sums)) / len(self.queue)

    def density(self) -> float:
        return self.occupancy / self.lane.length


def _reader(idx: Sequence[int]) -> Callable[[list[float]], Sequence[float]]:
    """A function that reads the counts at these snapshot indices, in
    order, from a snapshot's count list in one call.  `itemgetter` of one
    index returns the count alone, so one index, or none, reads a slice."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx) if idx else itemgetter(slice(0))


class _Phase(NamedTuple):
    """One phase compiled against a world's lane states, with all that a
    controller's decision reads of it: its served lanes' counts, its rivals
    and its green bounds."""

    spec: SignalPhase  # id, served lane ids, green bounds, yellow
    served: tuple[tuple[LaneState, float, float], ...]  # (lane, sat*dt, credit cap)
    read: Callable[[list[float]], Sequence[float]]  # the served lanes' counts in a snapshot
    next: str  # the next phase id in table order; the last wraps
    # (id, read) of every other phase, in table order
    rivals: tuple[tuple[str, Callable[[list[float]], Sequence[float]]], ...]
    min_green: float  # spec.min_green less TIME_TOL
    max_green: float  # spec.max_green less TIME_TOL


@dataclass
class SignalState:
    """One junction's signal and its compiled phases, by id in table order.

    `since` is the index of the step in which the active green, or the
    yellow that leads out of it, began.  No step advances it: in step k the
    junction has been in that green or yellow for the world's
    `step_sums[k - since]` seconds, the float that adding dt once per step
    since then would give.
    """

    phases: dict[str, _Phase] = field(repr=False)
    active_phase: str
    since: int = 0
    pending_phase: str | None = None  # set exactly while in yellow


class PerceivedObservation(NamedTuple):
    """What the roadside perceives: the vehicle count on each lane.

    `counts[i]` is the count on lane `lanes[i]`; `lanes` is the world's
    lane-id tuple, in `network.lanes()` order, shared by every snapshot.
    `counts` is the snapshot's own list, which no other snapshot shares.
    """

    counts: list[float]
    lanes: tuple[str, ...]


def network_problems(network: Network, dt: float) -> list[str]:
    """The network's lint problems, then each lane whose arrivals in a step of dt
    numpy cannot draw: a step's arrivals on a lane are one Poisson(inflow_rate * dt) draw."""
    return validate_network(network) + [
        f"demand on lane {ln.id} is too large to draw in one step"
        for ln in network.lanes() if ln.inflow_rate * dt > POISSON_LAM_MAX]


def _arrival_stream(seed: int, lane: Lane) -> np.random.Generator | None:
    """The lane's Philox stream, keyed by (seed, lane id); None without inflow."""
    if not lane.inflow_rate > 0.0:
        return None
    digest = hashlib.sha256(f"{seed}/{lane.id}".encode()).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


class World:
    """Single-owner simulation state; step it sequentially.

    Distinct worlds (other seeds or scenarios) share nothing and may run in
    parallel processes freely.

    The perception snapshot is built only when the controller's decision
    calls `observe`, so the taps run on some steps and not on others.  That
    leaves every output unchanged only while both taps are pure: the attack
    injector a function of (t, dt) and the perception filter a function of
    its snapshot, with whatever they read swapped only by hooks, which fire
    before a step starts.  Lane counts do not change between the queue joins
    and the decision, so any snapshot a decision reads is the one an eager
    build would have made.
    """

    def __init__(
        self,
        network: Network,
        controller,
        *,
        seed: int = 1,
        config: SimConfig | None = None,
        attack_injector: Callable[[float, float], dict[str, int]] | None = None,
        perception_filter: Callable[[PerceivedObservation], PerceivedObservation] | None = None,
    ) -> None:
        self.config = config or SimConfig()
        problems = network_problems(network, self.config.dt)
        if problems:
            raise ValueError(f"invalid network: {problems}")
        self.network = network
        self.controller = controller
        self.attack_injector = attack_injector
        self.perception_filter = perception_filter

        self.step_index = 0
        self.completed: list[VehicleRecord] = []
        # entry n is 0.0 + dt + ... + dt, the n additions in order, so a time
        # read here from its step count has the bits that adding dt once per
        # step gives; each step appends one entry, so they run to step_index
        self.step_sums: list[float] = [0.0]

        self._counts: dict[str, float] = {}  # vehicles on each lane, lane order
        self._cruising: dict[str, deque] = {}  # lane id -> cruisers, lanes that have any
        self.lane_states: dict[str, LaneState] = {
            lane.id: LaneState(
                lane=lane,
                counts=self._counts,
                cruising=self._cruising,
                arrivals=_arrival_stream(seed, lane),
            )
            for lane in network.lanes()
        }
        for src, dst in network.adjacency.items():
            self.lane_states[src].downstream = self.lane_states[dst]
        # the snapshot's lane order, and each lane id's index in it
        self.lane_ids: tuple[str, ...] = tuple(self._counts)
        self._lane_index = {lid: i for i, lid in enumerate(self.lane_ids)}
        # lanes with exogenous inflow, in lane order
        self._sources = [
            ls for ls in self.lane_states.values() if ls.arrivals is not None
        ]
        self.signals: dict[str, SignalState] = {
            j.id: self._compile(j) for j in network.junctions
        }
        # junction id -> its index in junction order, and lane id -> the
        # index of the junction the lane approaches
        self._junction_index = {jid: i for i, jid in enumerate(self.signals)}
        self._junction_of = {
            lane.id: self._junction_index[j.id]
            for j in network.junctions
            for lane in j.approach_lanes
        }
        # each junction's busy flag, in junction order: clear only while the
        # junction is green and its green phase's served lanes all have an
        # empty queue and credit at its cap, where discharge leaves them as
        # they are.  The step sets it when the junction enters yellow, which
        # drops that credit and leads to the next green, and when a vehicle
        # joins the queue of one of its approach lanes
        self._busy = [True] * len(self.signals)
        self._indexed = tuple(enumerate(self.signals.values()))
        self._yellow: list[SignalState] = []  # the signals with a pending phase

        self._hooks: list[dict] = []

    def _compile(self, junction) -> SignalState:
        """The junction's signal, its phases compiled on this world's lane states."""
        dt = self.config.dt
        index = self._lane_index
        served = {}  # lane id -> (lane state, sat*dt, credit cap)
        for lane in junction.approach_lanes:
            sat_dt = lane.saturation_flow * dt
            served[lane.id] = (self.lane_states[lane.id], sat_dt, max(1.0, sat_dt))
        table = junction.phase_table
        # each phase's reader of its served lanes' counts, by their snapshot indices
        read = {phase.id: _reader([index[lid] for lid in phase.served_lanes]) for phase in table}
        # the controllers' timing rule: a green has reached a bound once its
        # time is within TIME_TOL of it
        phases = {
            phase.id: _Phase(
                spec=phase,
                served=tuple([served[lid] for lid in phase.served_lanes]),
                read=read[phase.id],
                next=nxt.id,
                rivals=tuple([(rival.id, read[rival.id]) for rival in table if rival is not phase]),
                min_green=phase.min_green - TIME_TOL,
                max_green=phase.max_green - TIME_TOL,
            )
            for phase, nxt in zip(table, table[1:] + table[:1])
        }
        return SignalState(phases, active_phase=table[0].id)

    # ---------------------------------------------------------------- time

    @property
    def time(self) -> float:
        return self.step_index * self.config.dt

    @property
    def in_network(self) -> int:
        return int(sum(self._counts.values()))

    # --------------------------------------------------------------- hooks

    def add_hook(self, fn, *, start: float, interval: float) -> None:
        """Schedule fn(world, t) at `start`, then every `interval` seconds."""
        if math.isnan(start) or math.isnan(interval):  # a NaN time is never due
            raise ValueError(f"hook start and interval must be numbers, got {start}, {interval}")
        self._hooks.append({"next": start, "interval": interval, "fn": fn})

    def _fire_hooks(self) -> None:
        if not self._hooks:
            return
        t = self.step_index * self.config.dt  # self.time, without the property call
        for hook in self._hooks:
            if t + TIME_TOL >= hook["next"]:
                hook["fn"](self, t)
                nxt = hook["next"] + hook["interval"]
                # a hook fires at most once a step whatever its interval;
                # one next due under half a step on restarts its cadence half
                # a step on, so a late hook does not catch up
                hook["next"] = max(nxt, t + self.config.dt * 0.5)

    # ----------------------------------------------------------- perception

    def observe(self) -> PerceivedObservation:
        """Build the perception snapshot: real state, then attack, then filter.

        Phantoms on a lane id the world does not have are dropped.
        """
        counts = list(self._counts.values())
        if self.attack_injector is not None:
            index = self._lane_index
            dt = self.config.dt
            for lid, phantom in self.attack_injector(self.step_index * dt, dt).items():
                if phantom > 0 and lid in index:
                    counts[index[lid]] += phantom
        obs = PerceivedObservation(counts, self.lane_ids)
        if self.perception_filter is not None:
            obs = self.perception_filter(obs)
        return obs

    # ------------------------------------------------------ measured values

    def measured_flows(self) -> dict[str, float]:
        now = self.time
        window = self.config.flow_window
        return {
            lid: ls.measured_flow(now, window) for lid, ls in self.lane_states.items()
        }

    def lane_delay_estimates(self) -> dict[str, float]:
        step, sums = self.step_index, self.step_sums
        return {
            lid: ls.queued_delay_mean(step, sums) for lid, ls in self.lane_states.items()
        }

    def lane_densities(self) -> dict[str, float]:
        return {lid: ls.density() for lid, ls in self.lane_states.items()}

    # ----------------------------------------------------------------- step

    def step(self) -> list[Event]:
        """Advance the world by one step of `config.dt` seconds."""
        dt = self.config.dt
        window = self.config.flow_window
        k = self.step_index
        t = k * dt  # self.time, without the property call
        t_end = t + dt
        events: list[Event] = []
        signals = self.signals
        sums = self.step_sums
        flags = self._busy

        # 1. yellow completions: pending phase goes green.  Only the signals
        # in yellow are walked; one that turns green leaves the list
        yellow, self._yellow = self._yellow, []
        for sig in yellow:
            if sums[k - sig.since] + TIME_TOL >= sig.phases[sig.active_phase].spec.yellow:
                sig.active_phase = sig.pending_phase
                sig.pending_phase = None
                sig.since = k
                events.append(_PHASE_CHANGE)
            else:
                self._yellow.append(sig)

        # 2. exogenous arrivals join the entry backlog, which enters in
        # draw order while the lane has room; a vehicle spawns as it enters
        # (lane counts are whole floats, so counts < capacity is occupancy's test)
        counts = self._counts
        for ls in self._sources:
            if ls.next_arrival == k:
                ls.arrive(k, dt)
            while ls.backlog and counts[ls.id] < ls.jam_capacity:
                ls.backlog -= 1
                veh = VehicleRecord(f"{ls.id}#{ls.arrived - ls.backlog}", t_end)
                ls.admit(veh, t_end, window)
                events.append(_SPAWN)

        # 3. cruisers reaching the stop line join the queue; a vehicle waits
        # from the first step that starts at or after its arrival there.
        # Only lanes with cruisers are visited; one whose last cruiser joins
        # leaves the map after the walk, and a join marks its junction busy
        reached = t_end + TIME_TOL
        cruising = self._cruising
        junction_of = self._junction_of
        emptied = []
        for lid, travelling in cruising.items():
            if travelling[0][0] <= reached:
                queue = self.lane_states[lid].queue
                while travelling and travelling[0][0] <= reached:
                    join_time, veh = travelling.popleft()
                    first = k
                    while join_time > first * dt + TIME_TOL:
                        first += 1
                    queue.append((first, veh))
                    events.append(_QUEUE_JOIN)
                if not travelling:
                    emptied.append(lid)
                flags[junction_of[lid]] = True
        for lid in emptied:
            del cruising[lid]

        # 4. control decisions, which pull the perception snapshot through
        # observe() only if they read it; a junction entering yellow drops
        # its green lanes' discharge credit, the only credit it can hold, is
        # busy until a walk of its next green finds nothing to discharge, and
        # joins the yellow list
        for jid, desired in self.controller.decide(self, t).items():
            sig = signals[jid]
            if desired not in sig.phases:
                raise KeyError(f"junction {jid!r} has no phase {desired!r}")
            if sig.pending_phase is not None or desired == sig.active_phase:
                continue
            for ls, _, _ in sig.phases[sig.active_phase].served:
                ls.discharge_credit = 0.0
            sig.pending_phase = desired
            sig.since = k
            flags[self._junction_index[jid]] = True
            self._yellow.append(sig)

        # 5. discharge the served lanes of each busy green junction, walking
        # the flags in junction order.  A walk that leaves every served lane
        # with no queue and credit at its cap clears the flag: until a queue
        # join or a yellow, a walk would give each lane min(cap + sat*dt, cap)
        # = cap credit and discharge nothing
        for i, sig in compress(self._indexed, flags):
            if sig.pending_phase is not None:
                continue
            busy = False
            for ls, sat_dt, cap in sig.phases[sig.active_phase].served:
                credit = ls.discharge_credit + sat_dt
                if credit > cap:
                    credit = cap
                queue = ls.queue
                if queue and credit >= _ONE_VEHICLE:
                    dst = ls.downstream
                    while credit >= _ONE_VEHICLE and queue:
                        if dst is not None and counts[dst.id] >= dst.jam_capacity:
                            break  # spillback: nowhere to go
                        veh = ls.leave(k)
                        credit -= 1.0
                        events.append(_DISCHARGE)
                        if dst is not None:
                            dst.admit(veh, t_end, window)
                        else:
                            veh.depart_time = t_end
                            veh.accumulated_wait = sums[veh.wait_steps]
                            self.completed.append(veh)
                            events.append(_TRIP_COMPLETE)
                ls.discharge_credit = credit
                if queue or credit != cap:
                    busy = True
            flags[i] = busy

        sums.append(sums[-1] + dt)
        self.step_index += 1
        return events


@dataclass
class SimResult:
    trips: list[VehicleRecord]
    censored: int


def run(world: World, horizon: float) -> SimResult:
    """Step the world to the horizon, firing hooks before each step.

    Deterministic for a given seed and configuration: repeated runs produce
    identical trip logs.
    """
    if not math.isfinite(horizon):  # a NaN horizon runs no step, an infinite one never ends
        raise ValueError(f"horizon must be finite, got {horizon}")
    dt = world.config.dt
    while world.step_index * dt + TIME_TOL < horizon:  # world.time, without the property call
        world._fire_hooks()
        world.step()
    # entry backlog never entered the network; count it as incomplete demand
    backlog = sum(ls.backlog for ls in world.lane_states.values())
    return SimResult(trips=list(world.completed), censored=world.in_network + backlog)
