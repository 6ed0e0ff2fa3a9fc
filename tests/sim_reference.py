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
"""

from __future__ import annotations

from sybil_atsc.sim import VehicleRecord, World


class ReferenceWorld(World):
    """A `World` whose step visits every lane and every green junction."""

    def step(self) -> None:
        """Advance the world by one step of `config.dt` seconds."""
        dt = self.config.dt
        window = self.config.flow_window
        k = self.step_index
        t = self.time
        t_end = t + dt
        signals = self.signals

        # 1. yellow completions: pending phase goes green
        for sig in signals.values():
            if sig.pending_phase is not None:
                if sig.phase_elapsed + 1e-9 >= sig.phases[sig.active_phase].spec.yellow:
                    sig.active_phase = sig.pending_phase
                    sig.pending_phase = None
                    sig.phase_elapsed = 0.0

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

        # 4. control decisions, which pull the perception snapshot through
        # observe() only if they read it; a junction entering yellow drops
        # its green lanes' discharge credit, the only credit it can hold
        for jid, desired in self.controller.decide(self, t).items():
            sig = signals[jid]
            if desired not in sig.phases:
                raise KeyError(f"junction {jid!r} has no phase {desired!r}")
            if sig.pending_phase is not None or desired == sig.active_phase:
                continue
            for ls, _, _ in sig.phases[sig.active_phase].served:
                ls.discharge_credit = 0.0
            sig.pending_phase = desired
            sig.phase_elapsed = 0.0

        # 5. advance the timers and discharge the served lanes of every
        # green junction; discharge never reads a timer
        sums = self.step_sums
        for sig in signals.values():
            sig.phase_elapsed += dt
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
                        veh = ls.leave(k, sums)
                        credit -= 1.0
                        if dst is not None:
                            dst.admit(veh, t_end, window)
                        else:
                            veh.depart_time = t_end
                            self.completed.append(veh)
                ls.discharge_credit = credit

        self.step_index += 1
