import math
from dataclasses import replace

import numpy as np
import pytest

from sybil_atsc.attack import (
    AttackPlan,
    inject,
    plan_greedy_attack,
    plan_optimal_attack,
)
from sybil_atsc.networks import three_junction_reference
from sybil_atsc.traffic_model import max_flow

NET = three_junction_reference()
LANE_IDS = [ln.id for ln in NET.lanes()]
THETA = {ln.id: max_flow(ln.diagram) for ln in NET.lanes()}


def window(budget):
    """The plan a run holds before its first replan: a window, a duty cycle
    and `budget`, with no rates."""
    return AttackPlan(per_lane_rate={}, start_time=900.0, duration=4100.0,
                      duty_on=2.0, duty_off=2.0, total_budget=budget)


class TestAttackPlan:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AttackPlan(per_lane_rate={}, start_time=0, duration=10,
                       duty_on=0.0, duty_off=2.0, total_budget=1.0)
        with pytest.raises(ValueError):
            AttackPlan(per_lane_rate={"a": -0.1}, start_time=0, duration=10,
                       duty_on=2.0, duty_off=2.0, total_budget=1.0)
        with pytest.raises(ValueError):
            AttackPlan(per_lane_rate={"a": 2.0}, start_time=0, duration=10,
                       duty_on=2.0, duty_off=2.0, total_budget=1.0)

    # (field, the message its bound raises); each bound also rejects NaN
    BOUNDS = [
        ("start_time", "attack start must be >= 0"),
        ("duration", "duration must be >= 0"),
        ("duty_on", "duty_on must be > 0"),
        ("duty_off", "duty_off must be >= 0"),
        ("total_budget", "budget must be > 0"),
    ]

    @pytest.mark.parametrize("field, message", BOUNDS, ids=[f for f, _ in BOUNDS])
    def test_nan_is_rejected(self, field, message):
        # NaN fails every comparison, so a bound written `x <= 0` lets it in
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(window(1.0), per_lane_rate={"a": 1.0}, **{field: math.nan})

    def test_a_nan_rate_is_rejected(self):
        with pytest.raises(ValueError, match="per-lane rates must be >= 0"):
            replace(window(1.0), per_lane_rate={"a": 0.5, "b": math.nan})

    def test_requires_positive_budget(self):
        # the plan holds the budget, so it alone checks it; no planner does
        for budget in (0.0, -2.0):
            with pytest.raises(ValueError, match="budget must be > 0"):
                window(budget)

    def test_over_budget_by_a_relative_1e_9_raises(self):
        with pytest.raises(ValueError, match="above the budget"):
            AttackPlan(per_lane_rate={"a": 1e8 * (1 + 1e-9)}, start_time=0,
                       duration=10, duty_on=2.0, duty_off=2.0, total_budget=1e8)

    @pytest.mark.parametrize("budget", [1e7, 1e8])
    def test_large_budgets_survive_rounding(self, budget):
        # every lane's headroom exceeds the budget, so no rate is clamped and
        # the rates sum to the budget up to rounding
        rng = np.random.default_rng(0)
        lane_ids = [f"L{i}" for i in range(12)]
        for _ in range(200):
            theta = dict(zip(lane_ids, (rng.uniform(1.0, 2.0, 12) * budget).tolist()))
            flows = dict(zip(lane_ids, (rng.uniform(0.0, 0.5, 12) * budget).tolist()))
            plan = plan_optimal_attack(lane_ids, theta, flows, window(budget))
            assert sum(plan.per_lane_rate.values()) == pytest.approx(budget, rel=1e-12)


class TestPlanGreedy:
    def densities(self, value=0.0):
        return {lid: value for lid in LANE_IDS}

    def flows(self, value=0.0):
        return {lid: value for lid in LANE_IDS}

    def test_budget_lands_on_worst_delay_phase(self):
        delays = {lid: 0.0 for lid in LANE_IDS}
        delays["J2:N"] = 40.0
        delays["J2:S"] = 40.0
        delays["J2:E"] = 10.0
        plan = plan_greedy_attack(
            NET, delays, self.densities(), self.flows(), window(0.5)
        )
        targeted = {lid for lid, r in plan.per_lane_rate.items() if r > 0}
        assert targeted == {"J2:N", "J2:S"}
        assert sum(plan.per_lane_rate.values()) == pytest.approx(0.5)

    def test_jammed_network_gives_empty_plan(self):
        jam = {lid: 0.16 for lid in LANE_IDS}  # at jam density everywhere
        plan = plan_greedy_attack(
            NET, {lid: 5.0 for lid in LANE_IDS}, jam, self.flows(), window(1.0)
        )
        assert plan.is_empty

    def test_budget_clamped_at_phase_headroom(self):
        delays = {lid: 0.0 for lid in LANE_IDS}
        delays["J1:N"] = 30.0
        plan = plan_greedy_attack(
            NET, delays, self.densities(), self.flows(), window(50.0)
        )
        # both lanes of the phase saturate at their headroom (1.4 each)
        assert plan.per_lane_rate["J1:N"] == pytest.approx(1.4, rel=1e-12)
        assert plan.per_lane_rate["J1:S"] == pytest.approx(1.4, rel=1e-12)
        assert sum(plan.per_lane_rate.values()) == pytest.approx(2.8, rel=1e-12)


class TestPlanOptimal:
    def test_symmetric_lanes_get_uniform_rates(self):
        flows = {lid: 0.0 for lid in LANE_IDS}
        plan = plan_optimal_attack(LANE_IDS, THETA, flows, window(1.2))
        for lid in LANE_IDS:
            assert plan.per_lane_rate[lid] == pytest.approx(0.1, abs=1e-9)

    def test_two_lane_toy_follows_game_mix(self):
        plan = plan_optimal_attack(
            ["x", "y"], {"x": 1.0, "y": 3.0}, {"x": 0.0, "y": 0.0}, window(1.0)
        )
        assert plan.per_lane_rate["x"] == pytest.approx(0.75, abs=1e-9)
        assert plan.per_lane_rate["y"] == pytest.approx(0.25, abs=1e-9)

    def test_zero_headroom_everywhere_zero_plan(self):
        flows = dict(THETA)  # flows equal capacity
        plan = plan_optimal_attack(LANE_IDS, THETA, flows, window(5.0))
        assert plan.is_empty

    def test_rates_never_exceed_headroom(self):
        flows = {lid: 0.3 for lid in LANE_IDS}
        plan = plan_optimal_attack(LANE_IDS, THETA, flows, window(100.0))
        for lid in LANE_IDS:
            assert plan.per_lane_rate[lid] <= THETA[lid] - flows[lid] + 1e-9

    def test_focus_groups_pick_one_phase_per_junction(self):
        flows = {lid: 0.0 for lid in LANE_IDS}
        groups = [
            [list(ph.served_lanes) for ph in j.phase_table] for j in NET.junctions
        ]
        plan = plan_optimal_attack(
            LANE_IDS, THETA, flows, window(50.0), focus_groups=groups
        )
        for junction in NET.junctions:
            touched = [
                ph.id
                for ph in junction.phase_table
                if any(plan.per_lane_rate[lid] > 0 for lid in ph.served_lanes)
            ]
            assert len(touched) == 1


class TestPlannersFillInOnlyTheRates:
    # a window, duty cycle and budget unlike window()'s, so a planner that
    # restates any of them is caught
    PLAN = AttackPlan(per_lane_rate={}, start_time=123.0, duration=456.0,
                      duty_on=7.0, duty_off=3.0, total_budget=2.5)

    def check(self, plan):
        assert plan.per_lane_rate and not plan.is_empty
        assert replace(plan, per_lane_rate={}) == self.PLAN

    def test_greedy(self):
        delays = {lid: 1.0 for lid in LANE_IDS}
        densities = flows = {lid: 0.0 for lid in LANE_IDS}
        self.check(plan_greedy_attack(NET, delays, densities, flows, self.PLAN))

    def test_optimal(self):
        flows = {lid: 0.0 for lid in LANE_IDS}
        self.check(plan_optimal_attack(LANE_IDS, THETA, flows, self.PLAN))

    def test_a_planned_plan_is_planned_again_from_its_budget(self):
        flows = {lid: 0.0 for lid in LANE_IDS}
        first = plan_optimal_attack(LANE_IDS, THETA, flows, self.PLAN)
        assert plan_optimal_attack(LANE_IDS, THETA, flows, first) == first


class TestInject:
    PLAN = AttackPlan(
        per_lane_rate={"a": 0.5},
        start_time=100.0,
        duration=200.0,
        duty_on=2.0,
        duty_off=2.0,
        total_budget=0.5,
    )

    def test_before_window_nothing(self):
        assert inject(self.PLAN, 50.0, 1.0) == {}

    def test_off_interval_removes_phantoms(self):
        # 3 s past the window start sits in the off half of a 2/2 duty cycle
        assert inject(self.PLAN, 103.0, 1.0) == {}

    def test_credit_accumulates_to_whole_vehicles(self):
        assert inject(self.PLAN, 100.0, 2.0) == {"a": 1}

    def test_ramp_within_burst(self):
        plan = AttackPlan(
            per_lane_rate={"a": 1.0}, start_time=0.0, duration=100.0,
            duty_on=5.0, duty_off=5.0, total_budget=1.0,
        )
        counts = [inject(plan, float(t), 1.0).get("a", 0) for t in range(10)]
        assert counts == [1, 2, 3, 4, 5, 0, 0, 0, 0, 0]

    def test_a_rate_times_a_burst_that_rounds_below_a_whole_vehicle(self):
        # 0.29 veh/s over a 100 s burst is 28.999999999999996: VEHICLE_TOL
        # lifts it to 29 phantoms in the burst's last step
        plan = AttackPlan(per_lane_rate={"a": 0.29}, start_time=0.0, duration=1000.0,
                          duty_on=100.0, duty_off=10.0, total_budget=1.0)
        assert inject(plan, 99.0, 1.0) == {"a": 29}

    def test_after_window_nothing(self):
        assert inject(self.PLAN, 301.0, 1.0) == {}

    def test_pure_function(self):
        assert inject(self.PLAN, 100.0, 2.0) == inject(self.PLAN, 100.0, 2.0)

    def test_walks_the_lanes_with_a_rate_in_plan_order(self):
        plan = AttackPlan(
            per_lane_rate={"d": 0.0, "b": 0.7, "a": 0.0, "c": 0.2}, start_time=0.0,
            duration=100.0, duty_on=10.0, duty_off=0.0, total_budget=1.0,
        )
        assert plan.targets == (("b", 0.7), ("c", 0.2)) and not plan.is_empty
        out = inject(plan, 0.0, 5.0)
        assert out == {"b": 3, "c": 1} and list(out) == ["b", "c"]
        zero = AttackPlan(
            per_lane_rate={"a": 0.0}, start_time=0.0, duration=100.0,
            duty_on=10.0, duty_off=0.0, total_budget=1.0,
        )
        assert zero.targets == () and zero.is_empty


class TestMonotoneImpactOrdering:
    def test_attack_orderings_over_seeds(self, scenario_dir):
        # light version of the ordering gate: 3 seeds, shortened horizon
        from sybil_atsc.scenario import parse_scenario, run_single
        from dataclasses import replace

        clean = parse_scenario(scenario_dir / "adaptive_clean.scn")
        greedy = parse_scenario(scenario_dir / "attack_greedy.scn")
        optimal = parse_scenario(scenario_dir / "attack_optimal.scn")
        seeds = (1, 2, 3)

        def mean_wait(config):
            config = replace(config, horizon=2500.0)
            reports = [run_single(config, s) for s in seeds]
            return sum(r.mean_trip_waiting_time for r in reports) / len(reports)

        w_none = mean_wait(clean)
        w_greedy = mean_wait(greedy)
        w_opt = mean_wait(optimal)
        assert w_opt >= w_greedy >= w_none
