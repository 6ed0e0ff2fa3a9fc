"""Mutants that the tests must kill, one small fault each.

A mutant replaces one exact piece of text in one file.  `kills` names the
tests that pass on the package as it is and must fail with the mutant in
place.  `tests/run_mutants.py` applies each mutant to a copy of the package
and runs those tests; `tests/test_mutants.py` checks, in tier-1, that every
`old` text still occurs exactly once in its file, so a refactor that moves
the code also has to move its mutant.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    kills: tuple[str, ...]


GAME = "src/sybil_atsc/game.py"
SIMPLEX = "src/sybil_atsc/simplex.py"
SIM = "src/sybil_atsc/sim.py"
CONTROLLERS = "src/sybil_atsc/controllers.py"
SCENARIO = "src/sybil_atsc/scenario.py"
MITIGATION = "src/sybil_atsc/mitigation.py"
ATTACK = "src/sybil_atsc/attack.py"
TRAFFIC_MODEL = "src/sybil_atsc/traffic_model.py"
DIFFERENTIAL = "tests/test_sim_differential.py::test_step_matches_the_full_sweep"
CONTROL_DIFFERENTIAL = (
    "tests/test_controller_differential.py::test_each_decision_matches_the_plain_form"
)
WINDOW_PLAN = (
    "tests/test_scenario.py::TestRunners::"
    "test_each_replan_fills_in_the_rates_of_the_one_window_plan"
)
RESOLVED = "tests/test_scenario.py::TestAttackWindow::test_the_window_is_the_resolved_plan"
FIXED_SLOTS = (
    "tests/test_controllers.py::TestFixedSlots::"
    "test_an_accepted_schedule_greens_every_phase_in_every_cycle"
)
NEW_HORIZON = (
    "tests/test_scenario.py::TestAttackWindow::"
    "test_a_new_horizon_resolves_the_auto_duration_again"
)

MUTANTS = (
    Mutant(
        "game-value-left-scaled",
        GAME,
        "            value = np.ldexp(1.0 / total, top)\n",
        "            value = 1.0 / total\n",
        (
            "tests/test_game.py::TestNormalisedLP::test_a_power_of_two_scales_only_the_value",
            "tests/test_game.py::TestNormalisedLP::test_a_game_at_the_ends_of_the_float_range_solves[float-max]",
        ),
    ),
    Mutant(
        "distinct-solution-summed",
        GAME,
        "            total = x.sum()\n",
        "            total = res.x.sum()\n",
        (
            "tests/test_game.py::TestDistinctImpacts::test_matches_the_full_lp_bit_for_bit",
            "tests/test_game.py::TestDistinctImpacts::test_the_total_is_summed_over_every_lane",
        ),
    ),
    Mutant(
        "solution-indexed-by-lane-position",
        GAME,
        "            x = res.x[lane_value]\n",
        "            x = res.x[np.arange(d) % k]\n",
        (
            "tests/test_game.py::TestDistinctImpacts::test_matches_the_full_lp_bit_for_bit",
            "tests/test_game.py::TestDistinctImpacts::test_the_total_is_summed_over_every_lane",
            "tests/test_game.py::TestNormalisedLP::test_matches_exact_solution",
        ),
    ),
    Mutant(
        "unscaled-game-lp",
        GAME,
        "    mantissas, exponents = np.frexp(values)\n",
        "    mantissas, exponents = values, np.zeros(k, dtype=int)\n",
        (
            "tests/test_game.py::TestNormalisedLP::test_matches_exact_solution",
            "tests/test_game.py::TestNormalisedLP::test_grid_sized_game_over_the_whole_range",
        ),
    ),
    Mutant(
        "defender-vertex-at-lane-0",
        GAME,
        "        probs[0 if maximize else zeros[0]] = 1.0\n",
        "        probs[0] = 1.0\n",
        (
            "tests/test_game.py::TestNormalisedLP::test_matches_reference",
            "tests/test_game.py::TestNormalisedLP::test_grid_sized_game[0.1]",
        ),
    ),
    Mutant(
        "zero-factor-rows-written",
        SIMPLEX,
        "out=block, where=factors != 0.0)",
        "out=block)",
        (
            "tests/test_simplex.py::TestPivot::test_rows_with_a_zero_factor_keep_every_byte",
        ),
    ),
    Mutant(
        "bland-tie-break-reversed",
        SIMPLEX,
        "ratio < best + _TOL and (leave < 0 or var < leave_var)",
        "ratio < best + _TOL and (leave < 0 or var > leave_var)",
        (
            "tests/test_simplex.py::TestGoldenBytes::test_corpus_digest",
            "tests/test_simplex.py::TestGoldenBytes::test_ratios_tied_within_tolerance_but_not_exactly",
        ),
    ),
    Mutant(
        "pivot-update-scaled-by-one-ulp",
        SIMPLEX,
        "factors * pivot_row, out=block",
        "factors * pivot_row * (1 + 2**-52), out=block",
        (
            "tests/test_simplex.py::TestGoldenBytes::test_corpus_digest",
            "tests/test_simplex.py::TestGoldenBytes::test_large_corpus_digest",
            "tests/test_simplex.py::TestGoldenBytes::test_forbidden_artificial_leaves_the_basis",
        ),
    ),
    Mutant(
        "entering-column-not-the-lowest",
        SIMPLEX,
        "enter = int(improving[0])",
        "enter = int(improving[-1])",
        (
            "tests/test_simplex.py::TestGoldenBytes::test_corpus_digest",
            "tests/test_simplex.py::TestAgainstScipy::test_random_programs",
        ),
    ),
    Mutant(
        "artificials-live-after-phase-1",
        SIMPLEX,
        "        tableau[:, n_real:total] = 0.0\n",
        "",
        (
            "tests/test_simplex.py::TestBasics::test_equality_constraints",
            "tests/test_simplex.py::TestGoldenBytes::test_forbidden_artificial_leaves_the_basis",
            "tests/test_simplex.py::TestAgainstScipy::test_random_programs",
        ),
    ),
    Mutant(
        "perception-leaks-into-lane-counts",
        SIM,
        "            obs = self.perception_filter(obs)\n        return obs\n",
        "            obs = self.perception_filter(obs)\n"
        "        self._counts.update(zip(self.lane_ids, obs.counts))\n        return obs\n",
        (
            "tests/test_replay.py::test_a_replay_of_the_commands_gives_the_same_physics",
        ),
    ),
    Mutant(
        "spillback-into-a-full-lane",
        SIM,
        "if dst is not None and counts[dst.id] >= dst.jam_capacity:",
        "if dst is not None and counts[dst.id] > dst.jam_capacity:",
        (
            "tests/test_sim.py::TestStep::test_full_downstream_lane_blocks_discharge",
            "tests/test_sim.py::TestRun::test_spillback_guard",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "spillback-reads-the-upstream-capacity",
        SIM,
        "if dst is not None and counts[dst.id] >= dst.jam_capacity:",
        "if dst is not None and counts[dst.id] >= ls.jam_capacity:",
        (
            "tests/test_sim.py::TestStep::test_full_downstream_lane_blocks_discharge",
        ),
    ),
    Mutant(
        "spawn-into-a-full-lane",
        SIM,
        "while ls.backlog and counts[ls.id] < ls.jam_capacity:",
        "while ls.backlog and counts[ls.id] <= ls.jam_capacity:",
        (
            "tests/test_sim.py::TestEntryBacklog::test_backlog_enters_in_draw_order_when_the_lane_has_room",
            "tests/test_sim.py::TestRun::test_spillback_guard",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "hooks-skipped-when-there-are-some",
        SIM,
        "        if not self._hooks:\n            return\n",
        "        if self._hooks:\n            return\n",
        (
            "tests/test_sim.py::TestHooks::test_a_hook_due_under_half_a_step_on_restarts_from_there",
            "tests/test_sim.py::TestHooks::test_an_interval_under_half_a_step_fires_on_every_step",
        ),
    ),
    Mutant(
        "busy-flag-cleared-below-the-credit-cap",
        SIM,
        "                if queue or credit != cap:\n",
        "                if queue:\n",
        (
            "tests/test_sim.py::TestBookkeeping::test_cruising_lanes_and_idle_junctions[adaptive_clean]",
            "tests/test_golden.py::test_edge_path_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "busy-flag-not-set-on-entering-yellow",
        SIM,
        "            flags[self._junction_index[jid]] = True\n",
        "",
        (
            "tests/test_sim.py::TestBookkeeping::test_cruising_lanes_and_idle_junctions[adaptive_clean]",
            "tests/test_golden.py::test_edge_path_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "wait-as-steps-times-dt",
        SIM,
        "veh.accumulated_wait = sums[veh.wait_steps]",
        "veh.accumulated_wait = veh.wait_steps * dt",
        (
            "tests/test_sim.py::TestMaintainedState::test_occupancy_and_waits_match_a_recount[adaptive-0.3]",
            "tests/test_golden.py::test_edge_path_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "yellow-keeps-credit",
        SIM,
        "                ls.discharge_credit = 0.0\n",
        "                ls.discharge_credit = ls.discharge_credit\n",
        (
            "tests/test_sim.py::TestSignalMachine::test_only_green_served_lanes_hold_credit[arterial-1.0-adaptive]",
            "tests/test_sim.py::TestSignalMachine::test_only_green_served_lanes_hold_credit[grid-0.3-fixed]",
            "tests/test_golden.py::test_simulation_digest",
            "tests/test_golden.py::test_edge_path_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "cruising-lane-dropped-early",
        SIM,
        "                if not travelling:\n                    emptied.append(lid)\n",
        "                if True:\n                    emptied.append(lid)\n",
        (
            "tests/test_sim.py::TestStep::test_wait_starts_at_the_first_whole_step_in_the_queue",
            "tests/test_sim.py::TestEventCounts::test_counts_by_kind[adaptive_clean]",
            "tests/test_sim.py::TestEventCounts::test_counts_by_kind[grid_clean]",
            "tests/test_golden.py::test_simulation_digest",
            "tests/test_golden.py::test_edge_path_digest",
        ),
    ),
    Mutant(
        "signal-kept-in-the-yellow-list",
        SIM,
        "            else:\n                self._yellow.append(sig)\n",
        "            self._yellow.append(sig)\n",
        (
            "tests/test_sim.py::TestBookkeeping::test_cruising_lanes_and_idle_junctions[adaptive_clean]",
            "tests/test_controllers.py::TestFixedTime::test_a_command_the_yellow_ignores_is_issued_again_after_it",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "queue-join-leaves-its-junction-idle",
        SIM,
        "                flags[junction_of[lid]] = True\n",
        "",
        (
            "tests/test_sim.py::TestBookkeeping::test_cruising_lanes_and_idle_junctions[adaptive_clean]",
            "tests/test_golden.py::test_simulation_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "busy-flag-never-cleared",
        SIM,
        "            flags[i] = busy\n",
        "            flags[i] = True\n",
        (
            "tests/test_sim.py::TestBookkeeping::test_cruising_lanes_and_idle_junctions[adaptive_clean]",
        ),
    ),
    Mutant(
        "discharge-walks-junctions-in-reverse",
        SIM,
        "        for i, sig in compress(self._indexed, flags):\n",
        "        for i, sig in compress(self._indexed[::-1], flags[::-1]):\n",
        (
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        "yellow-clock-a-step-behind",
        SIM,
        "            if sums[k - sig.since] + TIME_TOL >= sig.phases[sig.active_phase].spec.yellow:\n",
        "            if sums[k - sig.since - 1] + TIME_TOL >= sig.phases[sig.active_phase].spec.yellow:\n",
        (
            "tests/test_sim.py::TestSignalMachine::test_switch_goes_through_yellow",
            "tests/test_golden.py::test_simulation_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "green-start-not-recorded",
        SIM,
        "                sig.since = k\n                events.append(_PHASE_CHANGE)\n",
        "                events.append(_PHASE_CHANGE)\n",
        (
            "tests/test_golden.py::test_simulation_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "yellow-start-not-recorded",
        SIM,
        "            sig.since = k\n            flags[self._junction_index[jid]] = True\n",
        "            flags[self._junction_index[jid]] = True\n",
        (
            "tests/test_sim.py::TestSignalMachine::test_yellow_runs_from_the_step_of_its_command",
            "tests/test_golden.py::test_simulation_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "step-sums-as-products",
        SIM,
        "        sums.append(sums[-1] + dt)\n",
        "        sums.append(len(sums) * dt)\n",
        (
            "tests/test_sim.py::TestMaintainedState::test_occupancy_and_waits_match_a_recount[adaptive-0.3]",
            "tests/test_golden.py::test_edge_path_digest",
            DIFFERENTIAL,
        ),
    ),
    Mutant(
        "queue-join-step-never-advances",
        SIM,
        "                        first += 1\n",
        "                        first += 0\n",
        (
            "tests/test_sim.py::TestStep::test_wait_starts_at_the_first_whole_step_in_the_queue",
        ),
    ),
    Mutant(
        "adaptive-clock-a-step-behind",
        CONTROLLERS,
        "            active = sig.phases[active_id]\n            elapsed = sums[k - sig.since]\n",
        "            active = sig.phases[active_id]\n            elapsed = sums[k - sig.since - 1]\n",
        (
            "tests/test_controllers.py::TestAdaptive::test_decided_from_exactly_min_green",
        ),
    ),
    Mutant(
        "adaptive-decides-in-yellow",
        CONTROLLERS,
        "            sig = signals[jid]\n            if sig.pending_phase is not None:\n                continue\n",
        "            sig = signals[jid]\n",
        (
            "tests/test_controllers.py::TestAdaptive::test_a_junction_in_yellow_is_not_decided",
        ),
    ),
    Mutant(
        "gap-actuated-clock-a-step-behind",
        CONTROLLERS,
        "            phase = sig.phases[sig.active_phase]\n            elapsed = sums[k - sig.since]\n",
        "            phase = sig.phases[sig.active_phase]\n            elapsed = sums[k - sig.since - 1]\n",
        (
            "tests/test_controllers.py::TestGapActuated::test_the_controller_reads_each_junction_s_clock",
        ),
    ),
    Mutant(
        "fixed-time-control-observes",
        CONTROLLERS,
        "        signals = world.signals\n        commands = {}\n",
        "        signals = world.signals\n        world.observe()\n        commands = {}\n",
        (
            "tests/test_sim.py::TestPerceptionPull::test_fixed_time_never_calls_a_tap",
        ),
    ),
    Mutant(
        "kept-phase-commanded",
        CONTROLLERS,
        "            if best_id != active_id:\n                commands[jid] = best_id\n",
        "            commands[jid] = best_id\n",
        (
            "tests/test_controllers.py::TestAdaptive::test_dominant_phase_already_served_stays",
            "tests/test_mitigation.py::TestControllerInteraction::test_filtering_changes_decision_only_by_reordering",
        ),
    ),
    Mutant(
        "one-phase-junction-rotates-at-max-green",
        CONTROLLERS,
        "            if elapsed >= active.max_green and active.rivals:\n",
        "            if elapsed >= active.max_green:\n",
        (
            "tests/test_controllers.py::TestAdaptive::test_one_phase_junction_at_max_green_keeps_its_phase",
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "rivals-hold-the-active-phase",
        SIM,
        "for rival in table if rival is not phase]),",
        "for rival in table]),",
        (
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "min-green-bound-without-tolerance",
        SIM,
        "                min_green=phase.min_green - TIME_TOL,\n",
        "                min_green=phase.min_green,\n",
        (
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "max-green-bound-without-tolerance",
        SIM,
        "                max_green=phase.max_green - TIME_TOL,\n",
        "                max_green=phase.max_green,\n",
        (
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "fixed-slot-falls-back-to-the-first",
        CONTROLLERS,
        "        return min(bisect_right(self.bounds, t % self.cycle), len(self.bounds) - 1)\n",
        "        return bisect_right(self.bounds, t % self.cycle) % len(self.bounds)\n",
        (
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "schedules-grouped-by-first-split",
        CONTROLLERS,
        "self._groups.setdefault(schedule.durations, (schedule, []))",
        "self._groups.setdefault(schedule.durations[0], (schedule, []))",
        (
            CONTROL_DIFFERENTIAL,
        ),
    ),
    Mutant(
        "equal-rival-replaces-the-first",
        CONTROLLERS,
        "pressure > best_pressure\n                    and pressure - best_pressure >",
        "pressure >= best_pressure\n                    or pressure - best_pressure >",
        (
            "tests/test_controllers.py::TestAdaptive::test_equal_rivals_go_to_the_first_in_table_order[10.0-32768.0]",
            "tests/test_controllers.py::TestAdaptive::test_equal_rivals_go_to_the_first_in_table_order[45.0-32768.0]",
        ),
    ),
    Mutant(
        "unit-weight-multiplied",
        MITIGATION,
        "enumerate(self.weights.values()) if w != 1.0)",
        "enumerate(self.weights.values()))",
        (
            "tests/test_mitigation.py::TestFilterPerception::test_only_lanes_short_of_full_trust_are_multiplied",
        ),
    ),
    Mutant(
        "zero-trust-lane-skipped",
        MITIGATION,
        "enumerate(self.weights.values()) if w != 1.0)",
        "enumerate(self.weights.values()) if w and w != 1.0)",
        (
            "tests/test_mitigation.py::TestFilterPerception::test_only_lanes_short_of_full_trust_are_multiplied",
            "tests/test_mitigation.py::TestFilterPerception::test_sparse_filter_has_the_bits_of_a_full_multiply",
        ),
    ),
    Mutant(
        "zero-rate-lane-targeted",
        ATTACK,
        "self.per_lane_rate.items() if not r <= 0.0)",
        "self.per_lane_rate.items())",
        (
            "tests/test_attack.py::TestInject::test_walks_the_lanes_with_a_rate_in_plan_order",
            "tests/test_attack.py::TestPlanOptimal::test_zero_headroom_everywhere_zero_plan",
        ),
    ),
    Mutant(
        "late-hook-catches-up",
        SIM,
        "                hook[\"next\"] = max(nxt, t + self.config.dt * 0.5)\n",
        "                hook[\"next\"] = nxt\n",
        (
            "tests/test_sim.py::TestHooks::test_a_hook_due_under_half_a_step_on_restarts_from_there",
        ),
    ),
    Mutant(
        "adaptive-green-decided-from-min-green",
        CONTROLLERS,
        "first = max(steps(phase.min_green), cadence - yellow)",
        "first = steps(phase.min_green)",
        (
            "tests/test_controllers.py::TestLongestGreens::test_a_green_held_to_its_bound_reaches_it[adaptive-longest0]",
        ),
    ),
    Mutant(
        "fixed-green-from-the-fewest-steps",
        CONTROLLERS,
        "greens = [max(counts) - y for counts, y in zip(held, before)]",
        "greens = [min(counts) - y for counts, y in zip(held, before)]",
        (FIXED_SLOTS,),
    ),
    Mutant(
        "fixed-starvation-from-the-most-steps",
        CONTROLLERS,
        "if min(counts) <= y]",
        "if max(counts) <= y]",
        (
            FIXED_SLOTS,
            "tests/test_controllers.py::TestFixedSlots::"
            "test_a_slot_that_only_equals_its_yellow_in_some_cycle_starves_its_phase",
        ),
    ),
    Mutant(
        "fixed-slot-equal-to-its-yellow-accepted",
        CONTROLLERS,
        "if min(counts) <= y]",
        "if min(counts) < y]",
        (
            FIXED_SLOTS,
            "tests/test_scenario.py::TestStalledGreens::"
            "test_a_schedule_that_starves_a_phase_is_rejected_naming_it[timing2]",
        ),
    ),
    Mutant(
        "fixed-first-green-counted",
        CONTROLLERS,
        "        held[0] = held[0][1:]  # cycle 0's slot 0 is the first green\n",
        "",
        (
            FIXED_SLOTS,
            "tests/test_controllers.py::TestFixedSlots::test_a_slot_counted_at_an_inexact_step",
        ),
    ),
    Mutant(
        "stalled-green-rejected-only-below-half-a-vehicle",
        SCENARIO,
        "                if saturation[lid] * green < 1.0 - CREDIT_TOL:\n",
        "                if saturation[lid] * green < 0.5:\n",
        (
            "tests/test_scenario.py::TestStalledGreens::test_just_below_the_bound_is_rejected_naming_the_phase[adaptive]",
            "tests/test_scenario.py::TestStalledGreens::test_the_found_config_is_rejected",
        ),
    ),
    Mutant(
        "headway-at-the-gap-extends",
        CONTROLLERS,
        "                if tightest < max_gap:\n",
        "                if tightest <= max_gap:\n",
        (
            "tests/test_controllers.py::TestGapActuated::test_a_headway_at_the_gap_switches",
        ),
    ),
    Mutant(
        "removed-name-left-exported",
        CONTROLLERS,
        '    "FixedSchedule",\n',
        '    "FixedSchedule",\n    "adaptive_decide",\n',
        (
            "tests/test_exports.py::test_each_name_in_all_resolves[controllers]",
        ),
    ),
    Mutant(
        "all-red-phase-has-no-tightest-headway",
        CONTROLLERS,
        "                    default=math.inf,\n",
        "",
        (
            "tests/test_controllers.py::TestGapActuated::test_a_phase_serving_no_lane_leaves_at_min_green",
            "tests/test_controllers.py::TestGapActuated::test_a_world_with_an_all_red_phase_runs",
        ),
    ),
    Mutant(
        "greedy-budget-halved",
        ATTACK,
        "    budget = plan.total_budget\n    lanes = {",
        "    budget = plan.total_budget / 2\n    lanes = {",
        (
            "tests/test_attack.py::TestPlanGreedy::test_budget_lands_on_worst_delay_phase",
        ),
    ),
    Mutant(
        "optimal-budget-halved",
        ATTACK,
        "    budget = plan.total_budget\n    theta_vec",
        "    budget = plan.total_budget / 2\n    theta_vec",
        (
            "tests/test_attack.py::TestPlanOptimal::test_symmetric_lanes_get_uniform_rates",
            "tests/test_attack.py::TestAttackPlan::test_large_budgets_survive_rounding[10000000.0]",
        ),
    ),
    Mutant(
        "greedy-plan-restates-the-duty-cycle",
        ATTACK,
        "    return replace(plan, per_lane_rate={lid: rates.get(lid, 0.0) for lid in lanes})\n",
        "    return replace(plan, per_lane_rate={lid: rates.get(lid, 0.0) for lid in lanes},\n"
        "                   duty_on=2.0, duty_off=2.0)\n",
        (
            "tests/test_attack.py::TestPlannersFillInOnlyTheRates::test_greedy",
            WINDOW_PLAN + "[given-greedy_critical_phase]",
        ),
    ),
    Mutant(
        "optimal-plan-restates-the-duty-cycle",
        ATTACK,
        "    return replace(plan, per_lane_rate=rates)\n",
        "    return replace(plan, per_lane_rate=rates, duty_on=2.0, duty_off=2.0)\n",
        (
            "tests/test_attack.py::TestPlannersFillInOnlyTheRates::test_optimal",
            WINDOW_PLAN + "[given-game_optimal]",
        ),
    ),
    Mutant(
        "window-starts-at-zero",
        SCENARIO,
        "                start_time=self.attack_start,\n",
        "                start_time=0.0,\n",
        (
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[auto-game_optimal]",
            RESOLVED + "[given]",
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        "given-duration-ignored",
        SCENARIO,
        "                    self.attack_duration\n                    if self.attack_duration is not None\n",
        "                    max(0.0, self.horizon - self.attack_start)\n"
        "                    if self.attack_duration is not None\n",
        (
            RESOLVED + "[given]",
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[given-game_optimal]",
        ),
    ),
    Mutant(
        "auto-duration-unclamped",
        SCENARIO,
        "                    else max(0.0, self.horizon - self.attack_start)\n",
        "                    else self.horizon - self.attack_start\n",
        (
            NEW_HORIZON,
            "tests/test_scenario.py::test_an_attack_from_the_horizon_on_changes_nothing",
        ),
    ),
    Mutant(
        "auto-duration-from-t-zero",
        SCENARIO,
        "                    else max(0.0, self.horizon - self.attack_start)\n",
        "                    else self.horizon\n",
        (
            RESOLVED + "[auto]",
            NEW_HORIZON,
            WINDOW_PLAN + "[auto-greedy_critical_phase]",
            WINDOW_PLAN + "[auto-game_optimal]",
        ),
    ),
    Mutant(
        "given-duty-cycle-ignored",
        SCENARIO,
        "                duty_on=self.duty_on,\n                duty_off=self.duty_off,\n",
        "                duty_on=2.0,\n                duty_off=2.0,\n",
        (
            RESOLVED + "[given]",
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[given-game_optimal]",
        ),
    ),
    Mutant(
        "given-budget-ignored",
        SCENARIO,
        "                    self.attack_budget\n                    if self.attack_budget is not None\n",
        "                    0.3 * sum(max_flow(ln.diagram) for ln in network.lanes())\n"
        "                    if self.attack_budget is not None\n",
        (
            RESOLVED + "[given]",
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[given-game_optimal]",
        ),
    ),
    Mutant(
        "auto-budget-of-one-lane",
        SCENARIO,
        "                    else 0.3 * sum(max_flow(ln.diagram) for ln in network.lanes())\n",
        "                    else 0.3 * max(max_flow(ln.diagram) for ln in network.lanes())\n",
        (
            RESOLVED + "[auto]",
            WINDOW_PLAN + "[auto-greedy_critical_phase]",
            WINDOW_PLAN + "[auto-game_optimal]",
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        "replans-after-the-window-ends",
        SCENARIO,
        "            if t >= plan.start_time + plan.duration - TIME_TOL:\n",
        "            if False:\n",
        (
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[given-game_optimal]",
        ),
    ),
    Mutant(
        "attack-tap-reads-the-window",
        SCENARIO,
        "        return inject(plan, t, dt)\n",
        "        return inject(config.attack_window, t, dt)\n",
        (
            WINDOW_PLAN + "[given-greedy_critical_phase]",
            WINDOW_PLAN + "[auto-game_optimal]",
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        "policy-rebound-locally",
        SCENARIO,
        "            nonlocal policy\n",
        "",
        (
            "tests/test_scenario.py::TestRunners::test_the_filter_reads_the_live_policy",
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        # a tap must be a function of this step's snapshot alone
        "filter-tap-returns-its-previous-output",
        SCENARIO,
        "    def mitigation_tap(obs):\n        return filter_perception(obs, policy)\n",
        "    def mitigation_tap(obs, _out=[]):\n"
        "        _out.append(filter_perception(obs, policy))\n"
        "        return _out[-2] if len(_out) > 1 else _out[-1]\n",
        (
            "tests/test_golden.py::test_simulation_digest",
        ),
    ),
    Mutant(
        # the row's rule dropped: every arm may give the key
        "control-row-deleted",
        SCENARIO,
        '    ("control", "max_gap"): ("max_gap", float, _GAP),\n',
        '    ("control", "max_gap"): ("max_gap", float, None),\n',
        (
            "tests/test_cli.py::TestInvalidValues::test_validate_exits_2[max_gap=2]",
            "tests/test_cli.py::TestInvalidValues::test_validate_exits_2[max_gap=4]",
            "tests/test_cli.py::TestInvalidValues::test_run_exits_2_before_running[max_gap=2]",
        ),
    ),
    Mutant(
        "max-gap-rule-loosened",
        SCENARIO,
        '_GAP = ("controller = gap_actuated", lambda c: c.controller == "gap_actuated")\n',
        '_GAP = ("controller = gap_actuated", lambda c: c.controller != "fixed")\n',
        (
            "tests/test_scenario_keys.py::test_each_arm_that_may_give_a_key_reads_it[control-max_gap]",
        ),
    ),
    Mutant(
        "attack-rule-tightened",
        SCENARIO,
        '_ATTACK = ("kind = greedy_critical_phase or game_optimal", lambda c: c.attack != "none")\n',
        '_ATTACK = ("kind = greedy_critical_phase or game_optimal", '
        'lambda c: c.attack == "greedy_critical_phase")\n',
        (
            "tests/test_cli.py::TestInvalidValues::test_full_scenario_is_valid",
        ),
    ),
    Mutant(
        "plan-duty-on-nan-accepted",
        ATTACK,
        "        if not self.duty_on > 0.0:\n",
        "        if self.duty_on <= 0.0:\n",
        (
            "tests/test_attack.py::TestAttackPlan::test_nan_is_rejected[duty_on]",
        ),
    ),
    Mutant(
        "seeds-override-dropped",
        SCENARIO,
        "        configs = [replace(config, seeds=seeds) for config in configs]\n",
        "",
        (
            "tests/test_scenario.py::TestRunners::test_seed_override_argument",
            "tests/test_scenario.py::TestRunners::test_empty_seed_list_rejected",
            "tests/test_cli.py::TestRun::test_flag_seeds_override",
        ),
    ),
    Mutant(
        "network-rebuilt-per-seed",
        SCENARIO,
        "    network = config.network\n",
        "    network = config.build_network()\n",
        (
            "tests/test_scenario.py::TestRunners::test_each_arm_is_built_once",
        ),
    ),
    Mutant(
        "credit-short-of-one-vehicle-waits",
        SIM,
        "_ONE_VEHICLE = 1.0 - CREDIT_TOL",
        "_ONE_VEHICLE = 1.0",
        (
            "tests/test_sim.py::TestStep::test_credit_that_rounds_below_one_vehicle_discharges",
        ),
    ),
    Mutant(
        "jam-capacity-floors-a-rounded-product",
        TRAFFIC_MODEL,
        "        return int(self.diagram.jam_density * self.length + VEHICLE_TOL)\n",
        "        return int(self.diagram.jam_density * self.length)\n",
        (
            "tests/test_traffic_model.py::TestLaneInvariants::"
            "test_jam_capacity_of_a_product_that_rounds_below_a_whole_vehicle",
        ),
    ),
    Mutant(
        "phantoms-floor-a-rounded-product",
        ATTACK,
        "        count = int(math.floor(rate * visible + VEHICLE_TOL))\n",
        "        count = int(math.floor(rate * visible))\n",
        (
            "tests/test_attack.py::TestInject::test_a_rate_times_a_burst_that_rounds_below_a_whole_vehicle",
        ),
    ),
    Mutant(
        "pressure-tie-absolute",
        CONTROLLERS,
        "pressure - best_pressure > TIE_TOL * max(1.0, abs(best_pressure))",
        "pressure - best_pressure > TIE_TOL",
        (
            "tests/test_controllers.py::TestAdaptive::"
            "test_a_one_ulp_lead_at_2_15_vehicles_is_a_tie[7.275957614183426e-12-commands0]",
        ),
    ),
    Mutant(
        "pressure-tie-zeroed",
        CONTROLLERS,
        "pressure - best_pressure > TIE_TOL * max(1.0, abs(best_pressure))",
        "pressure - best_pressure > 0.0",
        (
            "tests/test_controllers.py::TestAdaptive::test_the_seed_1_grid_near_tie_keeps_the_active_phase",
        ),
    ),
    Mutant(
        "unchecked-x-returned",
        SIMPLEX,
        "    _check_rows(a, b, n_ub, solution)\n",
        "",
        (
            "tests/test_simplex.py::test_an_x_that_breaks_a_row_is_refused",
        ),
    ),
)
