"""Signal control policies: fixed-time, gap-actuated, and pressure-based adaptive.

A controller's `decide(world, t)` reads lane counts only through
`world.observe()`, the perception snapshot (never the physical queues),
which is the seam where phantom vehicles and mitigation weighting act.  The
snapshot is a list of counts in the world's lane order, and each compiled
phase carries its served lanes' indices in it.  The gap-actuated policy
observes once per step; the pressure policy observes only on a step where
some junction can take a decision; the fixed-time policy never observes
and is therefore immune to perception corruption by construction.

The actuated policies decide per junction on the world's `SignalState`
records.  Each compiled phase carries all that a decision reads of it: its
served lanes, their snapshot indices and a reader of their counts in a
snapshot, its rivals (the other phases in table order, each with its
reader), the next phase in table order, and its green bounds with the
timing tolerance of 1e-9 already taken off.  A junction's time in its
green or yellow is read, never advanced: it is `step_sums[k - since]`, the
world's sequential step sums at the steps since the green or yellow began.
Both policies obey one timing rule, read from the compiled phase: a
junction in yellow or short of its min green holds (`_held`), and one at
its max green leaves its phase (`_expired`); the pressure policy, which
runs it for every junction past its cadence, inlines the two comparisons.

Fixed-time control finds each distinct schedule's slot once per step and
reads the phase at that slot for every junction that shares the schedule.

Every policy commands only a junction whose phase should change; the world
still ignores a command for the active phase.  It also ignores one given
during yellow, so fixed-time control repeats a command until it takes effect.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
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
    """A static cyclic green schedule for one junction.

    `cycle` is the durations' sum and `bounds` their running sums, each
    less 1e-9, both added in order when the schedule is made.
    """

    phase_ids: tuple[str, ...]
    durations: tuple[float, ...]
    cycle: float = field(init=False)
    bounds: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.phase_ids) != len(self.durations) or not self.phase_ids:
            raise ValueError("schedule needs one duration per phase")
        if any(d <= 0.0 for d in self.durations):
            raise ValueError("phase durations must be > 0")
        object.__setattr__(self, "cycle", sum(self.durations))
        bounds = tuple(acc - 1e-9 for acc in accumulate(self.durations))
        object.__setattr__(self, "bounds", bounds)

    def slot(self, t: float) -> int:
        """Index of the phase in effect at time t: the first whose bound
        the cycle position is below, or else the last."""
        return min(bisect_right(self.bounds, t % self.cycle), len(self.bounds) - 1)


def fixed_time_decide(schedule: FixedSchedule, t: float) -> str:
    """Phase commanded at time t, purely from the schedule position."""
    return schedule.phase_ids[schedule.slot(t)]


def perceived_headway(obs: PerceivedObservation, lane: Lane, index: int) -> float:
    """Time gap between successive perceived vehicles on a lane.

    `index` is the lane's position in the snapshot.  The perceived vehicles
    are spread over the lane's free-flow traversal window; no vehicles means
    an infinite gap.  Quantised to 0.1 s, the stop-line detector's
    resolution.
    """
    count = obs.counts[index]
    if count <= 1e-9:
        return math.inf
    return round((lane.free_flow_time / count) * 10.0) / 10.0


def _held(signal: SignalState, elapsed: float) -> bool:
    """In yellow or short of min green: the junction holds its phase."""
    return signal.pending_phase is not None or (
        elapsed < signal.phases[signal.active_phase].min_green
    )


def _expired(signal: SignalState, elapsed: float) -> bool:
    """At max green: the junction must leave its phase."""
    return elapsed >= signal.phases[signal.active_phase].max_green


def gap_actuated_decide(
    signal: SignalState,
    obs: PerceivedObservation,
    config: SimConfig,
    elapsed: float,
) -> str:
    """Extend the green while any served lane still shows a tight headway.

    `elapsed` is the junction's time in its green or yellow.  Bounded below
    by the phase's min green and above by its max green; otherwise the
    junction steps to the next phase in table order.
    """
    active = signal.active_phase
    if _held(signal, elapsed):
        return active
    phase = signal.phases[active]
    if not _expired(signal, elapsed):
        tightest = min(
            perceived_headway(obs, ls.lane, i)
            for (ls, _, _), i in zip(phase.served, phase.served_idx)
        )
        if tightest < config.max_gap:
            return active
    return phase.next


def adaptive_decide(
    signals: dict[str, SignalState],
    observe: Callable[[], PerceivedObservation],
    config: SimConfig,
    last: dict[str, float],
    t: float,
    sums: list[float],
    k: int,
) -> dict[str, str]:
    """Pick, per junction, the phase with the highest perceived pressure.

    Pressure of a phase is the sum of perceived counts on its served lanes,
    read at their snapshot indices and added in served-lane order from 0; a
    rival of the active phase pays the switch penalty, and the rivals are
    tried in table order, an equal one keeping the earlier choice.  The
    junctions are those of `last`, which holds each one's last decision
    time by id, in the order they are walked; this sets the time to t for
    every junction it decides.  A junction is decided only once
    `config.decision_interval` has passed since its last decision and only
    while the timing rule does not hold its phase; it gets a command only
    when the phase it picks is not its active one.  Each compiled phase
    reads its own counts and names its rivals with theirs (see
    `sim._Phase`).  A junction's time in its green or yellow in step `k`
    is `sums[k - since]`, `sums` being the world's step sums.  The snapshot
    comes from `observe()`, called once, at the first junction decided;
    when none is, it is never called.
    """
    commands: dict[str, str] = {}
    counts = None  # the snapshot's counts, once observed
    penalty = config.switch_penalty
    cadence = config.decision_interval - 1e-9
    for jid, decided in last.items():
        if t - decided < cadence:
            continue
        # the timing rule of `_held` and `_expired`, inlined
        sig = signals[jid]
        if sig.pending_phase is not None:
            continue
        active_id = sig.active_phase
        active = sig.phases[active_id]
        elapsed = sums[k - sig.since]
        if elapsed < active.min_green:
            continue
        if counts is None:
            counts = observe().counts
        if elapsed >= active.max_green and active.rivals:
            # phase table bounds green; rotate out: the first rival leads
            best_id = None
            best_pressure = -math.inf
        else:
            best_id = active_id
            best_pressure = sum(active.read(counts))
        for phase_id, read in active.rivals:
            pressure = sum(read(counts)) - penalty
            if best_id is None or pressure > best_pressure + 1e-12:
                best_pressure = pressure
                best_id = phase_id
        if best_id != active_id:
            commands[jid] = best_id
        last[jid] = t
    return commands


class FixedTimeController:
    """Schedule-driven control; observation-independent by construction.

    Junctions whose schedules have the same durations are in the same slot
    at every t, so a step finds each distinct schedule's slot once and reads
    each of its junctions' phase at it.
    """

    def __init__(self, network, config: SimConfig):
        # durations -> (the first such schedule, each junction's (id, phase ids))
        self._groups: dict[tuple[float, ...], tuple[FixedSchedule, list]] = {}
        for junction in network.junctions:
            n = len(junction.phase_table)
            splits = config.fixed_splits
            if len(splits) < n:
                splits = tuple(splits) + (splits[-1],) * (n - len(splits))
            schedule = FixedSchedule(
                phase_ids=tuple(p.id for p in junction.phase_table),
                durations=tuple(splits[:n]),
            )
            group = self._groups.setdefault(schedule.durations, (schedule, []))
            group[1].append((junction.id, schedule.phase_ids))

    def decide(self, world: World, t: float) -> dict[str, str]:
        signals = world.signals
        commands = {}
        for schedule, members in self._groups.values():
            slot = schedule.slot(t)
            for jid, phase_ids in members:
                if phase_ids[slot] != signals[jid].active_phase:
                    commands[jid] = phase_ids[slot]
        return commands


class GapActuatedController:
    def __init__(self, network, config: SimConfig):
        self.config = config

    def decide(self, world: World, t: float) -> dict[str, str]:
        obs = world.observe()
        config = self.config
        sums, k = world.step_sums, world.step_index
        return {
            jid: phase_id
            for jid, sig in world.signals.items()
            if (phase_id := gap_actuated_decide(sig, obs, config, sums[k - sig.since]))
            != sig.active_phase
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
            world.signals, world.observe, self.config, self._last_decision, t,
            world.step_sums, world.step_index,
        )


def build_controller(kind: str, network, config: SimConfig):
    if kind == "fixed":
        return FixedTimeController(network, config)
    if kind == "gap_actuated":
        return GapActuatedController(network, config)
    if kind == "adaptive":
        return PressureController(network, config)
    raise ValueError(f"unknown controller kind {kind!r}; use one of {CONTROLLER_KINDS}")
