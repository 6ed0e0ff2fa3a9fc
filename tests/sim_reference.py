"""The simulator step that sweeps every lane and every green junction.

`ReferenceWorld.step` is a verbatim copy of `World.step` from before the
step kept track of which lanes have cruisers and which green junctions
have discharge work: stage 3 scans every lane for vehicles reaching the
stop line, and stage 5 walks the served lanes of every green junction.
The differential test in test_sim_differential.py requires the package's
world to give the same bits as this one on every run it draws.
"""

from __future__ import annotations

from sybil_atsc.sim import Event, World


class ReferenceWorld(World):
    """A `World` whose step visits every lane and every green junction."""

    def step(self) -> list[Event]:
        """Advance the world by one step of `config.dt` seconds."""
        dt = self.config.dt
        window = self.config.flow_window
        k = self.step_index
        t = self.time
        t_end = t + dt
        events: list[Event] = []
        signals = self.signals

        # 1. yellow completions: pending phase goes green
        for jid, sig in signals.items():
            if sig.in_yellow:
                if sig.phase_elapsed + 1e-9 >= sig.phases[sig.active_phase].spec.yellow:
                    sig.active_phase = sig.pending_phase
                    sig.pending_phase = None
                    sig.in_yellow = False
                    sig.phase_elapsed = 0.0
                    events.append(Event("phase_change", t, jid, None))

        # 2. exogenous arrivals, queued behind any entry backlog
        for ls in self._sources:
            if ls.next_arrival == k:
                ls.arrive(k, t_end, dt)
            while ls.pending and ls.occupancy < ls.lane.jam_capacity:
                veh = ls.pending.popleft()
                veh.spawn_time = t_end
                ls.admit(veh, t_end, window)
                self.spawned += 1
                events.append(Event("spawn", t_end, veh.id, ls.lane.id))

        # 3. cruisers reaching the stop line join the queue; a vehicle waits
        # from the first step that starts at or after its arrival there
        reached = t_end + 1e-9
        for lid, ls in self.lane_states.items():
            travelling = ls.travelling
            while travelling and travelling[0][0] <= reached:
                join_time, veh = travelling.popleft()
                first = k
                while join_time > first * dt + 1e-9:
                    first += 1
                ls.queue.append((first, veh))
                events.append(Event("queue_join", t_end, veh.id, lid))

        # 4. control decisions, which pull the perception snapshot through
        # observe() only if they read it; a junction entering yellow drops
        # its green lanes' discharge credit, the only credit it can hold
        for jid, desired in self.controller.decide(self, t).items():
            sig = signals[jid]
            if desired not in sig.phases:
                raise KeyError(f"junction {jid!r} has no phase {desired!r}")
            if sig.in_yellow or desired == sig.active_phase:
                continue
            for ls, _, _ in sig.phases[sig.active_phase].served:
                ls.discharge_credit = 0.0
            sig.pending_phase = desired
            sig.in_yellow = True
            sig.phase_elapsed = 0.0

        # 5. advance the timers and discharge the served lanes of every
        # green junction; discharge never reads a timer
        sums = self.step_sums
        for sig in signals.values():
            sig.phase_elapsed += dt
            if sig.in_yellow:
                continue
            for ls, sat_dt, cap in sig.phases[sig.active_phase].served:
                credit = ls.discharge_credit + sat_dt
                if credit > cap:
                    credit = cap
                queue = ls.queue
                if queue and credit >= 1.0 - 1e-9:
                    dst = ls.downstream
                    lid = ls.lane.id
                    while credit >= 1.0 - 1e-9 and queue:
                        if dst is not None and dst.occupancy >= dst.lane.jam_capacity:
                            break  # spillback: nowhere to go
                        veh = ls.leave(k, sums)
                        credit -= 1.0
                        events.append(Event("discharge", t_end, veh.id, lid))
                        if dst is not None:
                            dst.admit(veh, t_end, window)
                        else:
                            veh.depart_time = t_end
                            self.completed.append(veh)
                            events.append(Event("trip_complete", t_end, veh.id, lid))
                ls.discharge_credit = credit

        self.step_index += 1
        return events
