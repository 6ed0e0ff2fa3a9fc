"""The fixed-time, gap-actuated and pressure decisions, written the plain way.

Each reference controller reads a junction's phases straight from the
`SignalPhase` specs of `network.junctions`, and works out on every call
what the package's controllers read from the world's compiled phase
records: a phase's served lanes' snapshot indices, from the world's
lane-id tuple; its green bounds less the 1e-9 tolerance; its rivals, by
walking the phase table and skipping the active phase; and a fixed-time
schedule's position, by summing its durations for each junction.  Only a
junction's state (active and pending phase, and the step its green or
yellow began) and the world's step sums come from the world.

test_controller_differential.py steps drawn worlds with the package's
controllers and requires these to give the same commands, and the same
decision times, on every step.
"""

from __future__ import annotations

import math

from sybil_atsc.sim import SimConfig, World


def _tables(network):
    """Each junction's phase table, by junction id."""
    return {junction.id: junction.phase_table for junction in network.junctions}


def _elapsed(world: World, jid: str) -> float:
    """The junction's time in its green or yellow, from the step sums."""
    return world.step_sums[world.step_index - world.signals[jid].since]


def _pressure(counts, index, phase) -> float:
    """The perceived counts on the phase's served lanes, summed in order."""
    return sum(counts[index[lid]] for lid in phase.served_lanes)


def _schedule_phase(phase_ids, durations, t: float) -> str:
    """The phase a fixed schedule gives at time t."""
    pos = t % sum(durations)
    acc = 0.0
    for phase_id, duration in zip(phase_ids, durations):
        acc += duration
        if pos < acc - 1e-9:
            return phase_id
    return phase_ids[-1]


class ReferenceFixedTime:
    def __init__(self, network, config: SimConfig):
        self.tables = _tables(network)
        self.config = config

    def decide(self, world: World, t: float) -> dict[str, str]:
        commands = {}
        for jid, table in self.tables.items():
            splits = list(self.config.fixed_splits)
            while len(splits) < len(table):
                splits.append(splits[-1])
            phase_id = _schedule_phase([p.id for p in table], splits[: len(table)], t)
            if phase_id != world.signals[jid].active_phase:
                commands[jid] = phase_id
        return commands


class ReferenceGapActuated:
    def __init__(self, network, config: SimConfig):
        self.tables = _tables(network)
        self.config = config

    def decide(self, world: World, t: float) -> dict[str, str]:
        obs = world.observe()
        index = {lid: i for i, lid in enumerate(world.lane_ids)}
        lanes = {lane.id: lane for lane in world.network.lanes()}
        commands = {}
        for jid, table in self.tables.items():
            sig = world.signals[jid]
            elapsed = _elapsed(world, jid)
            position = [p.id for p in table].index(sig.active_phase)
            active = table[position]
            if sig.pending_phase is not None or elapsed < active.min_green - 1e-9:
                continue
            if elapsed < active.max_green - 1e-9:
                headways = []
                for lid in active.served_lanes:
                    count = obs.counts[index[lid]]
                    free = lanes[lid].length / lanes[lid].diagram.free_speed
                    headways.append(
                        math.inf if count <= 1e-9 else round((free / count) * 10.0) / 10.0
                    )
                if min(headways, default=math.inf) < self.config.max_gap:
                    continue
            following = table[(position + 1) % len(table)].id
            if following != sig.active_phase:
                commands[jid] = following
        return commands


class ReferencePressure:
    def __init__(self, network, config: SimConfig):
        self.tables = _tables(network)
        self.config = config
        self._last_decision = {jid: -math.inf for jid in self.tables}

    def decide(self, world: World, t: float) -> dict[str, str]:
        config = self.config
        last = self._last_decision
        index = {lid: i for i, lid in enumerate(world.lane_ids)}
        counts = None
        commands = {}
        for jid, table in self.tables.items():
            sig = world.signals[jid]
            if t - last[jid] < config.decision_interval - 1e-9:
                continue
            if sig.pending_phase is not None:
                continue
            elapsed = _elapsed(world, jid)
            active = next(p for p in table if p.id == sig.active_phase)
            if elapsed < active.min_green - 1e-9:
                continue
            if counts is None:
                counts = world.observe().counts
            if elapsed >= active.max_green - 1e-9 and len(table) > 1:
                best_id, best_pressure = None, -math.inf  # rotate out
            else:
                best_id, best_pressure = active.id, _pressure(counts, index, active)
            for phase in table:
                if phase.id == active.id:
                    continue
                pressure = _pressure(counts, index, phase) - config.switch_penalty
                if best_id is None or (
                    pressure > best_pressure
                    and pressure - best_pressure > 1e-12 * max(1.0, abs(best_pressure))
                ):
                    best_id, best_pressure = phase.id, pressure
            if best_id != active.id:
                commands[jid] = best_id
            last[jid] = t
        return commands


REFERENCES = {
    "fixed": ReferenceFixedTime,
    "gap_actuated": ReferenceGapActuated,
    "adaptive": ReferencePressure,
}
