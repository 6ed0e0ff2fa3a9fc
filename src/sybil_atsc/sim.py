"""Time-stepped mesoscopic queue simulator for signalised networks.

Vehicles cross a lane at free speed, wait in a vertical FIFO queue at the
stop line, and discharge at the lane's saturation flow while the lane has
green.  Controllers never read the physical state directly: every step
builds a perception snapshot (per-lane vehicle counts) which an attack
tap may inflate with phantom vehicles and a mitigation tap may
re-weight before any control decision is taken.  Physical motion depends
only on the arrival draws and the signal commands, so perception corruption
cannot move a single real vehicle unless it changes a command.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .traffic_model import Lane, Network, validate_network

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
]

_ARRIVAL_CHUNK = 4096


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1.0
    flow_window: float = 300.0  # rolling window for per-lane flow, seconds
    max_gap: float = 3.0  # gap-actuated: extend green below this headway
    decision_interval: float = 5.0  # pressure controller decision cadence
    switch_penalty: float = 2.0  # perceived vehicles a phase change must beat
    fixed_splits: tuple[float, ...] = (40.0, 20.0)

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")


@dataclass
class VehicleRecord:
    """One real vehicle and its trip, named `<origin lane>#<n>`.

    Phantom vehicles exist only inside perception snapshots and never
    become records, so every record is a real vehicle.
    """

    id: str
    spawn_time: float
    depart_time: float | None = None
    accumulated_wait: float = 0.0
    free_flow_time: float = 0.0


class Event(NamedTuple):
    kind: str  # spawn | queue_join | discharge | phase_change | trip_complete
    time: float
    subject: str  # vehicle id or junction id
    lane: str | None = None


@dataclass
class LaneState:
    """Physical contents of one lane: cruisers, the stop-line queue, flow.

    A lane with exogenous inflow owns its Poisson arrival stream; a lane
    with a downstream lane hands discharged vehicles to its state.
    """

    lane: Lane
    downstream: LaneState | None = field(default=None, repr=False)  # None = sink
    arrivals: np.random.Generator | None = None  # None = no exogenous inflow
    travelling: deque = field(default_factory=deque)  # (queue_join_time, veh)
    queue: deque = field(default_factory=deque)  # (queue_join_time, veh)
    discharge_credit: float = 0.0
    entry_times: deque = field(default_factory=deque)  # vehicles entering the lane
    pending: deque = field(default_factory=deque)  # spawns awaiting lane space
    arrived: int = 0  # vehicles drawn so far; numbers the next id
    _draws: deque = field(default_factory=deque, init=False, repr=False)

    @property
    def occupancy(self) -> int:
        return len(self.travelling) + len(self.queue)

    def arrive(self, t: float, dt: float) -> None:
        """Queue one step's Poisson arrivals, spawned at t, behind the backlog."""
        if not self._draws:
            lam = self.lane.inflow_rate * dt
            self._draws.extend(self.arrivals.poisson(lam, _ARRIVAL_CHUNK).tolist())
        for _ in range(self._draws.popleft()):
            self.arrived += 1
            self.pending.append(
                VehicleRecord(id=f"{self.lane.id}#{self.arrived}", spawn_time=t)
            )

    def enter(self, t: float, window: float) -> None:
        """Log a vehicle entering at t; forget entries no window can reach.

        Flow reads come at times >= t, so dropping what falls out of the
        window now leaves every later reading unchanged.
        """
        self.entry_times.append(t)
        cutoff = t - window - 1e-9
        while self.entry_times[0] < cutoff:
            self.entry_times.popleft()

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
        while self.entry_times and self.entry_times[0] < cutoff - 1e-9:
            self.entry_times.popleft()
        return len(self.entry_times) / span

    def queued_delay_mean(self) -> float:
        if not self.queue:
            return 0.0
        return sum(veh.accumulated_wait for _, veh in self.queue) / len(self.queue)

    def density(self) -> float:
        return self.occupancy / self.lane.length


@dataclass
class SignalState:
    active_phase: str
    phase_elapsed: float = 0.0
    in_yellow: bool = False
    pending_phase: str | None = None


@dataclass(frozen=True)
class PerceivedObservation:
    """What the roadside perceives: the vehicle count on each lane."""

    counts: dict[str, float]


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
        problems = validate_network(network)
        if problems:
            raise ValueError(f"invalid network: {problems}")
        self.network = network
        self.controller = controller
        self.config = config or SimConfig()
        self.attack_injector = attack_injector
        self.perception_filter = perception_filter

        self.step_index = 0
        self.completed: list[VehicleRecord] = []
        self.spawned = 0

        self.lane_states: dict[str, LaneState] = {
            lane.id: LaneState(lane=lane, arrivals=_arrival_stream(seed, lane))
            for lane in network.lanes()
        }
        for src, dst in network.adjacency.items():
            self.lane_states[src].downstream = self.lane_states[dst]
        # lanes with exogenous inflow, drawn in lane order every step
        self._sources = [
            ls for ls in self.lane_states.values() if ls.arrivals is not None
        ]
        self.signals: dict[str, SignalState] = {
            j.id: SignalState(active_phase=j.phase_table[0].id) for j in network.junctions
        }

        self._hooks: list[dict] = []

    # ---------------------------------------------------------------- time

    @property
    def time(self) -> float:
        return self.step_index * self.config.dt

    @property
    def in_network(self) -> int:
        return sum(ls.occupancy for ls in self.lane_states.values())

    # --------------------------------------------------------------- hooks

    def add_hook(self, fn, *, start: float, interval: float) -> None:
        """Schedule fn(world, t) at `start`, then every `interval` seconds."""
        self._hooks.append({"next": start, "interval": interval, "fn": fn})

    def _fire_hooks(self) -> None:
        t = self.time
        for hook in self._hooks:
            if t + 1e-9 >= hook["next"]:
                hook["fn"](self, t)
                nxt = hook["next"] + hook["interval"]
                # never fire twice in one step, even for tiny intervals
                hook["next"] = max(nxt, t + self.config.dt * 0.5)

    # ----------------------------------------------------------- perception

    def observe(self, t: float | None = None, dt: float | None = None) -> PerceivedObservation:
        """Build the perception snapshot: real state, then attack, then filter."""
        t = self.time if t is None else t
        dt = self.config.dt if dt is None else dt
        counts = {lid: float(ls.occupancy) for lid, ls in self.lane_states.items()}
        if self.attack_injector is not None:
            for lid, phantom in self.attack_injector(t, dt).items():
                if phantom > 0 and lid in counts:
                    counts[lid] += phantom
        obs = PerceivedObservation(counts=counts)
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
        return {lid: ls.queued_delay_mean() for lid, ls in self.lane_states.items()}

    def lane_densities(self) -> dict[str, float]:
        return {lid: ls.density() for lid, ls in self.lane_states.items()}

    # ----------------------------------------------------------------- step

    def step(self) -> list[Event]:
        """Advance the world by one step of `config.dt` seconds."""
        dt = self.config.dt
        t = self.time
        t_end = t + dt
        events: list[Event] = []

        # 1. yellow completions: pending phase goes green
        for junction in self.network.junctions:
            sig = self.signals[junction.id]
            if sig.in_yellow:
                yellow = junction.phase(sig.active_phase).yellow
                if sig.phase_elapsed + 1e-9 >= yellow:
                    sig.active_phase = sig.pending_phase
                    sig.pending_phase = None
                    sig.in_yellow = False
                    sig.phase_elapsed = 0.0
                    events.append(
                        Event("phase_change", t, junction.id, None)
                    )

        # 2. exogenous arrivals, queued behind any entry backlog
        for ls in self._sources:
            ls.arrive(t_end, dt)
            cap = ls.lane.jam_capacity
            while ls.pending and ls.occupancy < cap:
                veh = ls.pending.popleft()
                veh.spawn_time = t_end
                veh.free_flow_time = ls.lane.free_flow_time
                ls.travelling.append((t_end + ls.lane.free_flow_time, veh))
                ls.enter(t_end, self.config.flow_window)
                self.spawned += 1
                events.append(Event("spawn", t_end, veh.id, ls.lane.id))

        # 3. cruisers reaching the stop line join the queue
        for lid, ls in self.lane_states.items():
            while ls.travelling and ls.travelling[0][0] <= t_end + 1e-9:
                join_time, veh = ls.travelling.popleft()
                ls.queue.append((join_time, veh))
                events.append(Event("queue_join", t_end, veh.id, lid))

        # 4. perception snapshot, then control decisions on it
        obs = self.observe(t, dt)
        commands = self.controller.decide(self, obs, t)
        for junction in self.network.junctions:
            sig = self.signals[junction.id]
            desired = commands.get(junction.id)
            if desired is None or sig.in_yellow or desired == sig.active_phase:
                continue
            junction.phase(desired)  # validates the id
            sig.pending_phase = desired
            sig.in_yellow = True
            sig.phase_elapsed = 0.0

        # 5. discharge the served lanes of every green junction
        served_now: set[str] = set()
        for junction in self.network.junctions:
            sig = self.signals[junction.id]
            if sig.in_yellow:
                continue
            phase = junction.phase(sig.active_phase)
            for lid in phase.served_lanes:
                served_now.add(lid)
                ls = self.lane_states[lid]
                sat = ls.lane.saturation_flow
                ls.discharge_credit = min(
                    ls.discharge_credit + sat * dt, max(1.0, sat * dt)
                )
                dst = ls.downstream
                while ls.discharge_credit >= 1.0 - 1e-9 and ls.queue:
                    if dst is not None and dst.occupancy >= dst.lane.jam_capacity:
                        break  # spillback: nowhere to go
                    _, veh = ls.queue.popleft()
                    ls.discharge_credit -= 1.0
                    events.append(Event("discharge", t_end, veh.id, lid))
                    if dst is not None:
                        veh.free_flow_time += dst.lane.free_flow_time
                        dst.travelling.append(
                            (t_end + dst.lane.free_flow_time, veh)
                        )
                        dst.enter(t_end, self.config.flow_window)
                    else:
                        veh.depart_time = t_end
                        self.completed.append(veh)
                        events.append(Event("trip_complete", t_end, veh.id, lid))
        for lid, ls in self.lane_states.items():
            if lid not in served_now:
                ls.discharge_credit = 0.0

        # 6. queued vehicles that sat through the whole step accrue waiting;
        # queued vehicles have speed exactly 0, so the usual "waiting when
        # slower than 0.1 m/s" definition reduces to queue membership
        for ls in self.lane_states.values():
            for join_time, veh in ls.queue:
                if join_time <= t + 1e-9:
                    veh.accumulated_wait += dt

        # 7. timers
        for sig in self.signals.values():
            sig.phase_elapsed += dt
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
    while world.time + 1e-9 < horizon:
        world._fire_hooks()
        world.step()
    # entry backlog never entered the network; count it as incomplete demand
    pending = sum(len(ls.pending) for ls in world.lane_states.values())
    return SimResult(trips=list(world.completed), censored=world.in_network + pending)
