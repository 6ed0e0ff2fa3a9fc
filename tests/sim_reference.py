"""The simulator step that sweeps every lane and every green junction.

`ReferenceWorld.step` is a verbatim copy of `World.step` from before the
step kept track of which lanes have cruisers and which green junctions
have discharge work: stage 3 scans every lane for vehicles reaching the
stop line, and stage 5 walks the served lanes of every green junction.
The differential test in test_sim_differential.py requires the package's
world to give the same bits as this one on every run it draws.

Three departures from the verbatim copy follow the package's state: the
step returns no events, since the differential test compares trips, rows,
flows and weights; a junction is in yellow while it has a pending phase;
and the entry backlog is a count, each vehicle's record built when it
enters.

Three more make the reference independent of the package's lazy paths:
- each junction keeps its own float timer, reset to 0.0 where its green or
  yellow begins and advanced by dt at the end of every step; stage 1 reads
  it, and at the end of every step the reference asserts that the
  package's clock, `step_sums[step_index - since]`, reads the same float
  for every junction (the controllers read that clock);
- waits accrue step by step: at the end of each step, every queued vehicle
  whose first waiting step has come adds dt to its `accumulated_wait`, and
  the sink writes nothing there, so a trip's wait never comes from
  `step_sums` or `wait_steps`;
- the perception snapshot is built eagerly, on every step before the
  decision, and `observe` hands that snapshot to the controller, so both
  taps run on every step whether or not a decision reads them.
"""

from __future__ import annotations

from sybil_atsc.sim import PerceivedObservation, VehicleRecord, World


class ReferenceWorld(World):
    """A `World` whose step visits every lane and every green junction."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._timers = {jid: 0.0 for jid in self.signals}

    def observe(self) -> PerceivedObservation:
        """The snapshot this step built before its decision."""
        return self._snapshot

    def step(self) -> None:
        """Advance the world by one step of `config.dt` seconds."""
        dt = self.config.dt
        window = self.config.flow_window
        k = self.step_index
        t = self.time
        t_end = t + dt
        signals = self.signals
        timers = self._timers

        # 1. yellow completions: pending phase goes green
        for jid, sig in signals.items():
            if sig.pending_phase is not None:
                if timers[jid] + 1e-9 >= sig.phases[sig.active_phase].spec.yellow:
                    sig.active_phase = sig.pending_phase
                    sig.pending_phase = None
                    timers[jid] = 0.0
                    sig.since = k

        # 2. exogenous arrivals, queued behind any entry backlog
        for ls in self._sources:
            if ls.next_arrival == k:
                ls.arrive(k, dt)
            while ls.backlog and ls.occupancy < ls.lane.jam_capacity:
                ls.backlog -= 1
                veh = VehicleRecord(f"{ls.lane.id}#{ls.arrived - ls.backlog}", t_end)
                ls.admit(veh, t_end, window)

        # 3. cruisers reaching the stop line join the queue; a vehicle waits
        # from the first step that starts at or after its arrival there
        reached = t_end + 1e-9
        for ls in self.lane_states.values():
            travelling = ls.travelling
            while travelling and travelling[0][0] <= reached:
                join_time, veh = travelling.popleft()
                first = k
                while join_time > first * dt + 1e-9:
                    first += 1
                ls.queue.append((first, veh))

        # 4. control decisions on the snapshot built for this step; a
        # junction entering yellow drops its green lanes' discharge credit,
        # the only credit it can hold
        self._snapshot = World.observe(self)
        for jid, desired in self.controller.decide(self, t).items():
            sig = signals[jid]
            if desired not in sig.phases:
                raise KeyError(f"junction {jid!r} has no phase {desired!r}")
            if sig.pending_phase is not None or desired == sig.active_phase:
                continue
            for ls, _, _ in sig.phases[sig.active_phase].served:
                ls.discharge_credit = 0.0
            sig.pending_phase = desired
            timers[jid] = 0.0
            sig.since = k

        # 5. advance the timers and discharge the served lanes of every
        # green junction; discharge never reads a timer
        for jid, sig in signals.items():
            timers[jid] += dt
            if sig.pending_phase is not None:
                continue
            for ls, sat_dt, cap in sig.phases[sig.active_phase].served:
                credit = ls.discharge_credit + sat_dt
                if credit > cap:
                    credit = cap
                queue = ls.queue
                if queue and credit >= 1.0 - 1e-9:
                    dst = ls.downstream
                    while credit >= 1.0 - 1e-9 and queue:
                        if dst is not None and dst.occupancy >= dst.lane.jam_capacity:
                            break  # spillback: nowhere to go
                        veh = ls.leave(k)
                        credit -= 1.0
                        if dst is not None:
                            dst.admit(veh, t_end, window)
                        else:
                            veh.depart_time = t_end
                            self.completed.append(veh)
                ls.discharge_credit = credit

        # 6. every vehicle still queued waited through this step, unless its
        # first waiting step is still to come
        for ls in self.lane_states.values():
            for first, veh in ls.queue:
                if first <= k:
                    veh.accumulated_wait += dt

        self.step_sums.append(self.step_sums[-1] + dt)
        self.step_index += 1
        # the clock the controllers read is each junction's own timer
        for jid, sig in signals.items():
            assert self.step_sums[self.step_index - sig.since] == timers[jid], jid
