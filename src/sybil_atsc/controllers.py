"""Signal control policies: fixed-time, gap-actuated, and pressure-based adaptive.

Fixed-time control cycles through the `fixed_splits` greens.  Gap-actuated
control extends a green while a served lane's perceived headway is under
`max_gap` (3 s by default), between the phase's min and max green (5 s and
45 s by default).  The pressure policy serves, every `decision_interval`
(5 s by default), the phase with the highest perceived count sum, a rival
paying the switch penalty.  A phase's pressure adds its served lanes'
snapshot counts from 0 in served-lane order.  A phase that serves no lane
(an all-red stage) has a pressure of 0 and shows no headway, so
gap-actuated control ends it at its min green.

A controller's `decide(world, t)` reads lane counts only through
`world.observe()`, the perception snapshot (never the physical queues),
which is the seam where phantom vehicles and mitigation weighting act.  The
snapshot is a list of counts in the world's lane order.  The gap-actuated
policy observes once per step; the pressure policy observes only on a step
where some junction can take a decision; the fixed-time policy never
observes and is therefore immune to perception corruption by construction.

Each controller's `decide` is the one implementation of its policy.  The
actuated policies walk the world's `SignalState` records, and each compiled
phase carries all that a decision reads of it: its served lanes, a reader
of their counts in a snapshot (an `itemgetter` of their indices), its
rivals (the other phases in table order, each with its reader), the next
phase in table order, and its green bounds with the timing tolerance
`sim.TIME_TOL` already taken off.  A junction's time in its green or
yellow is read, never advanced: it is `step_sums[k - since]`, the world's
sequential step sums at the steps since the green or yellow began.  Both walks obey one
timing rule: a junction in yellow or short of its phase's min green holds,
and one at its max green leaves its phase.  The pressure policy walks its
junctions' last decision times, looks a junction's signal up only once its
cadence has passed, and records a decision time for each junction it
decides, command or not.  Fixed-time control finds each distinct
schedule's slot once per step for all the junctions that share it: one
evaluation per step on the 10x10 grid, not 100.

Every policy commands only a junction whose phase should change, so a
step's command loop visits only the junctions that switch, about 2 of the
grid's 100 per step; the world still ignores a command for the active
phase.  It also ignores one given during yellow, so fixed-time control
repeats a command until it takes effect.

`longest_greens` reads each phase's longest green off its controller's
timing rule, in whole steps: `max_green`, the first pressure decision at or
past `max_green`, or, under fixed time, the most steps the phase's slot
holds in a cycle less the yellow before it.  Fixed-time slots are counted
from `FixedSchedule.slot(k * dt)`, the function the controller reads, over
every cycle the horizon reaches and three at least, since at an inexact dt
a slot can hold a step fewer than its split suggests: with splits of 21 s
and 3.6 s at dt = 0.3 s, the 21 s slot holds 69 steps after the first
cycle, not 70.  A fixed-time phase must be green in every cycle, so a
schedule whose slot holds no more steps than the yellow before it in some
cycle (a split no longer than a step, or one a long yellow eats) starves
its phase and raises ValueError naming it; a scenario config reports it as
a `ScenarioError`.

`tests/controller_reference.py` keeps the plain form of each decision,
read straight from the phase specs, and a property test steps drawn worlds
with both and requires the same commands on every step.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .sim import TIME_TOL, SimConfig, World
from .traffic_model import VEHICLE_TOL, Lane

__all__ = [
    "FixedSchedule",
    "longest_greens",
    "perceived_headway",
    "FixedTimeController",
    "GapActuatedController",
    "PressureController",
    "build_controller",
    "CONTROLLER_KINDS",
]

# pressures are sums of filtered counts, so two that tie can differ by a few ulps of the larger
TIE_TOL = 1e-12


@dataclass(frozen=True)
class FixedSchedule:
    """The green durations of a static cyclic schedule, one per phase slot;
    `cycle` is their sum and `bounds` their running sums less TIME_TOL, both
    added in order when the schedule is made."""

    durations: tuple[float, ...]
    cycle: float = field(init=False)
    bounds: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.durations or not all(d > 0.0 for d in self.durations):
            raise ValueError("fixed_splits must list one or more durations > 0")
        object.__setattr__(self, "cycle", sum(self.durations))
        object.__setattr__(self, "bounds", tuple(a - TIME_TOL for a in accumulate(self.durations)))

    def slot(self, t: float) -> int:
        """Index of the phase in effect at time t: the first whose bound
        the cycle position is below, or else the last."""
        return min(bisect_right(self.bounds, t % self.cycle), len(self.bounds) - 1)

    def held(self, dt: float, horizon: float) -> list[list[int]]:
        """The steps of dt each slot holds in each cycle that a run to the
        horizon reaches, three at least, by bisection over the steps k: the
        pair (k * dt // cycle, slot(k * dt)) never falls as k grows."""
        cycles, n = max(3, math.ceil(horizon / self.cycle)), len(self.durations)
        steps = range(math.ceil(cycles * self.cycle / dt) + 2)
        firsts = [bisect_left(steps, (q, j), key=lambda k: (k * dt // self.cycle, self.slot(k * dt)))
                  for q in range(cycles + 1) for j in range(n)]
        return [[firsts[i + 1] - firsts[i] for i in range(j, cycles * n, n)] for j in range(n)]


def _split_durations(splits: tuple[float, ...], n: int) -> tuple[float, ...]:
    """The green durations of n phases: the splits, the last one repeated."""
    return (splits + splits[-1:] * n)[:n]


def longest_greens(kind: str, junction, config: SimConfig, horizon: float) -> dict[str, float]:
    """Each phase's longest green, in whole steps as seconds, under `kind`'s
    timing rule in a run to the horizon (a yellow lasts a step at least),
    not counting the run's first green; a junction's only phase has inf:
    - fixed: the most steps the phase's slot holds in a cycle, less the
      yellow before it; a slot that holds no more than that yellow in some
      cycle starves its phase, and raises ValueError;
    - gap_actuated: max_green;
    - adaptive: the first decision at or past max_green.  The first in a
      green comes once min_green, and a decision interval since the command
      that ended the last green (before the yellow of whichever rival that
      green was), have passed; the next one interval apart, each step at 0.
    """
    dt = config.dt

    def steps(bound: float) -> int:  # the steps a timer takes to reach bound
        return max(0, math.ceil((bound - TIME_TOL) / dt))

    table = junction.phase_table
    if len(table) == 1:
        return {table[0].id: math.inf}
    yellows = [max(1, steps(phase.yellow)) for phase in table]
    if kind == "fixed":
        schedule = FixedSchedule(_split_durations(tuple(config.fixed_splits), len(table)))
        held = schedule.held(dt, horizon)
        held[0] = held[0][1:]  # cycle 0's slot 0 is the first green
        before = yellows[-1:] + yellows[:-1]  # the yellow before each phase
        starved = [p.id for p, counts, y in zip(table, held, before) if min(counts) <= y]
        if starved:
            raise ValueError(f"fixed_splits starve phase {', '.join(starved)}: in some cycle "
                             f"its slot holds no more steps of {dt:g} s than the yellow before it")
        greens = [max(counts) - y for counts, y in zip(held, before)]
    elif kind == "gap_actuated":
        greens = [steps(phase.max_green) for phase in table]
    else:
        cadence = max(1, steps(config.decision_interval))
        greens = []
        for i, phase in enumerate(table):
            top = steps(phase.max_green)
            longest = 0
            for j, yellow in enumerate(yellows):
                if j != i:
                    first = max(steps(phase.min_green), cadence - yellow)
                    # the first decision at or past max_green ends the green
                    longest = max(longest, first + cadence * max(0, -((first - top) // cadence)))
            greens.append(longest)
    return {phase.id: green * dt for phase, green in zip(table, greens)}


def perceived_headway(count: float, lane: Lane) -> float:
    """Time gap between successive perceived vehicles on a lane.

    The `count` perceived vehicles are spread over the lane's free-flow
    traversal window; no vehicles means an infinite gap.  Quantised to
    0.1 s, the stop-line detector's resolution.
    """
    if count <= VEHICLE_TOL:
        return math.inf
    return round((lane.free_flow_time / count) * 10.0) / 10.0


class FixedTimeController:
    """Schedule-driven control; observation-independent by construction.

    Each junction's phases get the `fixed_splits` durations in table order,
    the last repeated for any phase beyond them.  Junctions with the same
    durations share a slot at every t, so a step finds each distinct
    schedule's slot once and reads each of its junctions' phase at it."""

    def __init__(self, network, config: SimConfig):
        # durations -> (the first such schedule, each junction's (id, phase ids))
        self._groups: dict[tuple[float, ...], tuple[FixedSchedule, list]] = {}
        splits = tuple(config.fixed_splits)
        for junction in network.junctions:
            if not junction.phase_table:
                continue  # nothing to time: validate_network reports it, and World refuses it
            schedule = FixedSchedule(_split_durations(splits, len(junction.phase_table)))
            group = self._groups.setdefault(schedule.durations, (schedule, []))
            group[1].append((junction.id, tuple(p.id for p in junction.phase_table)))

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
    """Extend each green while a served lane still shows a tight headway.

    A junction past its min green leaves for the next phase in table order
    once no served lane's perceived headway is below `config.max_gap`, or
    at its max green.  A phase that serves no lane shows no headway, so it
    leaves at its min green.
    """

    def __init__(self, network, config: SimConfig):
        self.config = config

    def decide(self, world: World, t: float) -> dict[str, str]:
        counts = world.observe().counts
        max_gap = self.config.max_gap
        sums, k = world.step_sums, world.step_index
        commands = {}
        for jid, sig in world.signals.items():
            if sig.pending_phase is not None:
                continue
            phase = sig.phases[sig.active_phase]
            elapsed = sums[k - sig.since]
            if elapsed < phase.min_green:
                continue
            if elapsed < phase.max_green:
                tightest = min(
                    (perceived_headway(count, ls.lane)
                     for count, (ls, _, _) in zip(phase.read(counts), phase.served)),
                    default=math.inf,
                )
                if tightest < max_gap:
                    continue
            if phase.next != sig.active_phase:
                commands[jid] = phase.next
        return commands


class PressureController:
    """Pick, per junction, the phase with the highest perceived pressure.

    Pressure of a phase is the sum of perceived counts on its served lanes,
    added in served-lane order from 0; a rival of the active phase pays the
    switch penalty, and the rivals are tried in table order, an equal one
    keeping the earlier choice.  The junctions are walked in the order of
    `_last_decision`, their last decision times by id, which deciding sets
    to t; a junction is decided once `config.decision_interval` has passed
    since then.  The snapshot is observed at the first junction decided.
    """

    def __init__(self, network, config: SimConfig):
        self.config = config
        self._last_decision: dict[str, float] = {
            j.id: -math.inf for j in network.junctions
        }

    def decide(self, world: World, t: float) -> dict[str, str]:
        signals = world.signals
        sums, k = world.step_sums, world.step_index
        last = self._last_decision
        commands: dict[str, str] = {}
        counts = None  # the snapshot's counts, once observed
        penalty = self.config.switch_penalty
        cadence = self.config.decision_interval - TIME_TOL
        for jid, decided in last.items():
            if t - decided < cadence:
                continue
            sig = signals[jid]
            if sig.pending_phase is not None:
                continue
            active_id = sig.active_phase
            active = sig.phases[active_id]
            elapsed = sums[k - sig.since]
            if elapsed < active.min_green:
                continue
            if counts is None:
                counts = world.observe().counts
            if elapsed >= active.max_green and active.rivals:
                # phase table bounds green; rotate out: the first rival leads
                best_id = None
                best_pressure = -math.inf
            else:
                best_id = active_id
                best_pressure = sum(active.read(counts))
            for phase_id, read in active.rivals:
                pressure = sum(read(counts)) - penalty
                if best_id is None or (
                    pressure > best_pressure
                    and pressure - best_pressure > TIE_TOL * max(1.0, abs(best_pressure))
                ):
                    best_pressure = pressure
                    best_id = phase_id
            if best_id != active_id:
                commands[jid] = best_id
            last[jid] = t
        return commands


_CONTROLLERS = {
    "fixed": FixedTimeController,
    "gap_actuated": GapActuatedController,
    "adaptive": PressureController,
}
CONTROLLER_KINDS = tuple(_CONTROLLERS)


def build_controller(kind: str, network, config: SimConfig):
    if kind not in _CONTROLLERS:
        raise ValueError(f"unknown controller kind {kind!r}; use one of {CONTROLLER_KINDS}")
    return _CONTROLLERS[kind](network, config)
