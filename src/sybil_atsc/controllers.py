"""Signal control policies: fixed-time, gap-actuated, and pressure-based adaptive.

A controller's `decide(world, t)` reads lane counts only through
`world.observe()`, the perception snapshot (never the physical queues),
which is the seam where phantom vehicles and mitigation weighting act.  The
gap-actuated policy observes once per step; the pressure policy observes
only on a step where some junction can take a decision; the fixed-time
policy never observes and is therefore immune to perception corruption by
construction.

The actuated policies decide per junction on the world's `SignalState`
records, whose compiled phases carry the served lanes, the green bounds and
the next phase in table order.  Both obey one timing rule: a junction in
yellow or short of its min green holds (`_held`), and one at its max green
leaves its phase (`_expired`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable

from .sim import PerceivedObservation, SignalState, SimConfig, World
from .traffic_model import Lane

__all__ = [
    "FixedSchedule",
    "fixed_time_decide",
    "gap_actuated_decide",
    "adaptive_decide",
    "perceived_headway",
    "FixedTimeController",
    "GapActuatedController",
    "PressureController",
    "build_controller",
    "CONTROLLER_KINDS",
]

CONTROLLER_KINDS = ("fixed", "gap_actuated", "adaptive")


@dataclass(frozen=True)
class FixedSchedule:
    """A static cyclic green schedule for one junction."""

    phase_ids: tuple[str, ...]
    durations: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.phase_ids) != len(self.durations) or not self.phase_ids:
            raise ValueError("schedule needs one duration per phase")
        if any(d <= 0.0 for d in self.durations):
            raise ValueError("phase durations must be > 0")

    @property
    def cycle(self) -> float:
        return sum(self.durations)


def fixed_time_decide(schedule: FixedSchedule, t: float) -> str:
    """Phase commanded at time t, purely from the schedule position."""
    pos = t % schedule.cycle
    acc = 0.0
    for phase_id, duration in zip(schedule.phase_ids, schedule.durations):
        acc += duration
        if pos < acc - 1e-9:
            return phase_id
    return schedule.phase_ids[-1]


def perceived_headway(obs: PerceivedObservation, lane: Lane) -> float:
    """Time gap between successive perceived vehicles on a lane.

    The perceived vehicles are spread over the lane's free-flow traversal
    window; no vehicles means an infinite gap.  Quantised to 0.1 s, the
    stop-line detector's resolution.
    """
    count = obs.counts.get(lane.id, 0.0)
    if count <= 1e-9:
        return math.inf
    return round((lane.free_flow_time / count) * 10.0) / 10.0


def _held(signal: SignalState) -> bool:
    """In yellow or short of min green: the junction holds its phase."""
    return signal.pending_phase is not None or (
        signal.phase_elapsed < signal.phases[signal.active_phase].spec.min_green - 1e-9
    )


def _expired(signal: SignalState) -> bool:
    """At max green: the junction must leave its phase."""
    return signal.phase_elapsed >= signal.phases[signal.active_phase].spec.max_green - 1e-9


def gap_actuated_decide(
    signal: SignalState,
    obs: PerceivedObservation,
    config: SimConfig,
) -> str:
    """Extend the green while any served lane still shows a tight headway.

    Bounded below by the phase's min green and above by its max green;
    otherwise the junction steps to the next phase in table order.
    """
    active = signal.active_phase
    if _held(signal):
        return active
    phase = signal.phases[active]
    if not _expired(signal):
        tightest = min(perceived_headway(obs, ls.lane) for ls, _, _ in phase.served)
        if tightest < config.max_gap:
            return active
    return phase.next


def adaptive_decide(
    signals: dict[str, SignalState],
    observe: Callable[[], PerceivedObservation],
    config: SimConfig,
    last: dict[str, float],
    t: float,
) -> dict[str, str]:
    """Pick, per junction, the phase with the highest perceived pressure.

    Pressure of a phase is the sum of perceived counts on its served lanes;
    a candidate other than the active phase pays the switch penalty.  A
    junction gets a command only once `config.decision_interval` has passed
    since its last one (`last`, by junction id, which this updates to t) and
    only while the timing rule does not hold its phase.  The snapshot comes
    from `observe()`, called once, at the first junction that gets a
    command; when none does, it is never called.
    """
    commands: dict[str, str] = {}
    get = None  # the snapshot's counts.get, once observed
    zeros = repeat(0.0)  # get(lid, 0.0) through map, without a frame per sum
    penalty = config.switch_penalty
    cadence = config.decision_interval - 1e-9
    for jid, sig in signals.items():
        if t - last[jid] < cadence or _held(sig):
            continue
        if get is None:
            get = observe().counts.get
        active_id = sig.active_phase
        if _expired(sig) and len(sig.phases) > 1:
            # phase table bounds green; rotate out: the first rival leads
            best_id = None
            best_pressure = -math.inf
        else:
            best_id = active_id
            best_pressure = sum(map(get, sig.phases[active_id].spec.served_lanes, zeros))
        for phase_id, phase in sig.phases.items():
            if phase_id == active_id:
                continue
            pressure = sum(map(get, phase.spec.served_lanes, zeros)) - penalty
            if best_id is None or pressure > best_pressure + 1e-12:
                best_pressure = pressure
                best_id = phase_id
        commands[jid] = best_id
        last[jid] = t
    return commands


class FixedTimeController:
    """Schedule-driven control; observation-independent by construction."""

    def __init__(self, network, config: SimConfig):
        self.schedules: dict[str, FixedSchedule] = {}
        for junction in network.junctions:
            n = len(junction.phase_table)
            splits = config.fixed_splits
            if len(splits) < n:
                splits = tuple(splits) + (splits[-1],) * (n - len(splits))
            self.schedules[junction.id] = FixedSchedule(
                phase_ids=tuple(p.id for p in junction.phase_table),
                durations=tuple(splits[:n]),
            )

    def decide(self, world: World, t: float) -> dict[str, str]:
        return {
            jid: fixed_time_decide(schedule, t)
            for jid, schedule in self.schedules.items()
        }


class GapActuatedController:
    def __init__(self, network, config: SimConfig):
        self.config = config

    def decide(self, world: World, t: float) -> dict[str, str]:
        obs = world.observe()
        return {
            jid: gap_actuated_decide(sig, obs, self.config)
            for jid, sig in world.signals.items()
        }


class PressureController:
    """Adaptive policy deciding every decision_interval seconds per junction."""

    def __init__(self, network, config: SimConfig):
        self.config = config
        self._last_decision: dict[str, float] = {
            j.id: -math.inf for j in network.junctions
        }

    def decide(self, world: World, t: float) -> dict[str, str]:
        return adaptive_decide(
            world.signals, world.observe, self.config, self._last_decision, t
        )


def build_controller(kind: str, network, config: SimConfig):
    if kind == "fixed":
        return FixedTimeController(network, config)
    if kind == "gap_actuated":
        return GapActuatedController(network, config)
    if kind == "adaptive":
        return PressureController(network, config)
    raise ValueError(f"unknown controller kind {kind!r}; use one of {CONTROLLER_KINDS}")
