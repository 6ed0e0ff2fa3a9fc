"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 5-7 run the shipped scenario arms at their full horizon over the
default ten seeds; the orderings asserted here are the desk-scale substitute
for absolute delay numbers that depend on a specific microsimulator.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from grid_oracle import maxmin_value_by_grid
from sybil_atsc.attack import AttackPlan, inject, plan_optimal_attack
from sybil_atsc.controllers import build_controller
from sybil_atsc.game import diagonal_closed_form, solve_game
from sybil_atsc.metrics import trip_records, trips_to_text
from sybil_atsc.scenario import parse_scenario, run_suite
from sybil_atsc.sim import World, run
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    critical_density,
    flow_at_density,
    max_flow,
    speed_at_density,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SEEDS = tuple(range(1, 11))


def _report(criterion: str, elapsed: float, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] {criterion}: PASS ({elapsed:.2f}s){suffix}")


def _game_corpus(n=1000):
    rng = np.random.default_rng(20260808)
    for _ in range(n):
        dim = int(rng.integers(1, 33))
        yield 10.0 * (1.0 - rng.random(dim))  # entries in (0, 10]


def _mean(xs):
    return sum(xs) / len(xs)


def _sd(xs):
    mu = _mean(xs)
    return (sum((x - mu) ** 2 for x in xs) / (len(xs) - 1)) ** 0.5


def _arm_reports(filename, seeds=SEEDS):
    config = parse_scenario(SCENARIOS / filename)
    return run_suite([config], seeds=seeds)[0]


def test_criterion_1_game_duality():
    start = time.monotonic()
    worst = 0.0
    for impacts in _game_corpus():
        sol = solve_game(impacts)
        gap = abs(sol.attacker_value - sol.defender_value)
        bound = 1e-8 * max(1.0, abs(sol.attacker_value))
        assert gap <= bound
        worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report("1 game duality over 1000 random games", elapsed, f"worst gap {worst:.2e}")


def test_criterion_2_closed_form_and_grid_oracle():
    start = time.monotonic()
    checked_grid = 0
    for impacts in _game_corpus():
        sol = solve_game(impacts)
        oracle = diagonal_closed_form(impacts)
        assert abs(sol.value - oracle.value) <= 1e-8
        for got, want in ((sol.attacker, oracle.attacker), (sol.defender, oracle.defender)):
            assert np.max(np.abs(np.asarray(got.probs) - np.asarray(want.probs))) <= 1e-7
        if impacts.size <= 3:
            grid_value = maxmin_value_by_grid(np.diag(impacts), step=1e-3)
            assert abs(sol.value - grid_value) <= 2e-3 * max(1.0, abs(sol.value))
            checked_grid += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert checked_grid > 0
    _report(
        "2 closed-form + grid oracle equivalence", elapsed,
        f"{checked_grid} low-dim games brute-forced",
    )


def test_criterion_3_fundamental_diagram_identities():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        params = FundamentalDiagramParams(
            free_speed=float(rng.uniform(0.1, 60.0)),
            jam_density=float(rng.uniform(0.01, 0.6)),
        )
        cap = max_flow(params)
        at_critical = flow_at_density(params, critical_density(params))
        assert abs(at_critical - cap) <= 1e-12 * cap
        for i in range(0, 65):
            k = params.jam_density * i / 64
            q = flow_at_density(params, k)
            assert q <= cap + 1e-12
            v = speed_at_density(params, k)
            assert abs(q - k * v) <= 1e-12 * max(1.0, abs(q))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report("3 fundamental-diagram identities", elapsed)


def test_criterion_4_physics_perception_separation():
    start = time.monotonic()
    config = parse_scenario(SCENARIOS / "baseline_fixed.scn")
    config = replace(config, horizon=2000.0)
    network = config.build_network()
    lane_ids = [ln.id for ln in network.lanes()]
    theta = {ln.id: max_flow(ln.diagram) for ln in network.lanes()}
    # maximal budget: every lane saturates at its full headroom
    window = AttackPlan(per_lane_rate={}, start_time=0.0, duration=config.horizon,
                        duty_on=24.0, duty_off=6.0, total_budget=1e6)
    plan = plan_optimal_attack(lane_ids, theta, {lid: 0.0 for lid in lane_ids}, window)
    for seed in SEEDS:
        logs = []
        for injector in (None, lambda t, dt: inject(plan, t, dt)):
            world = World(
                network,
                build_controller("fixed", network, config.sim_config()),
                seed=seed,
                config=config.sim_config(),
                attack_injector=injector,
            )
            result = run(world, config.horizon)
            logs.append(trips_to_text(trip_records(result.trips)))
        assert logs[0] == logs[1]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report("4 physics/perception separation under fixed-time control", elapsed)


def test_criterion_5_attack_effectiveness_ordering():
    start = time.monotonic()
    wait_none = _mean(
        [r.mean_trip_waiting_time for r in _arm_reports("adaptive_clean.scn")]
    )
    wait_greedy = _mean(
        [r.mean_trip_waiting_time for r in _arm_reports("attack_greedy.scn")]
    )
    wait_game = _mean(
        [r.mean_trip_waiting_time for r in _arm_reports("attack_optimal.scn")]
    )
    elapsed = time.monotonic() - start
    assert wait_game >= 1.15 * wait_none, (
        f"game attack raised waits only from {wait_none:.2f} to {wait_game:.2f}"
    )
    assert wait_game >= wait_greedy >= wait_none
    assert elapsed < 300.0
    _report(
        "5 attack effectiveness ordering", elapsed,
        f"none {wait_none:.1f}s <= greedy {wait_greedy:.1f}s <= game {wait_game:.1f}s",
    )


def test_criterion_6_mitigation_ordering_and_recovery():
    start = time.monotonic()
    loss = {}
    sd = {}
    for arm, filename in [
        ("clean", "adaptive_clean.scn"),
        ("attacked", "attack_optimal.scn"),
        ("fair", "attack_fair_mitigation.scn"),
        ("optimal", "attack_optimal_mitigation.scn"),
    ]:
        losses = [r.mean_time_loss for r in _arm_reports(filename)]
        loss[arm] = _mean(losses)
        sd[arm] = _sd(losses)
    elapsed = time.monotonic() - start
    assert loss["optimal"] < loss["fair"] < loss["attacked"]
    # strict separation: one-standard-deviation bands must not overlap
    assert loss["optimal"] + sd["optimal"] < loss["fair"] - sd["fair"]
    assert loss["fair"] + sd["fair"] < loss["attacked"] - sd["attacked"]
    induced = loss["attacked"] - loss["clean"]
    recovered = loss["attacked"] - loss["optimal"]
    assert induced > 0
    assert recovered >= 0.30 * induced
    assert elapsed < 600.0
    _report(
        "6 mitigation ordering + recovery", elapsed,
        f"optimal {loss['optimal']:.1f}s < fair {loss['fair']:.1f}s "
        f"< unmitigated {loss['attacked']:.1f}s; recovery "
        f"{100 * recovered / induced:.0f}%",
    )


def test_criterion_7_adaptive_beats_fixed_baseline():
    start = time.monotonic()
    wait_fixed = _mean(
        [r.mean_trip_waiting_time for r in _arm_reports("baseline_fixed.scn")]
    )
    wait_adaptive = _mean(
        [r.mean_trip_waiting_time for r in _arm_reports("adaptive_clean.scn")]
    )
    elapsed = time.monotonic() - start
    assert wait_adaptive < wait_fixed
    assert elapsed < 120.0
    _report(
        "7 adaptive beats fixed baseline", elapsed,
        f"{wait_adaptive:.1f}s vs {wait_fixed:.1f}s",
    )


def test_criterion_8_suite_determinism(tmp_path):
    start = time.monotonic()
    configs = [
        replace(parse_scenario(SCENARIOS / name), horizon=800.0, seeds=(1, 2, 3))
        for name in ("adaptive_clean.scn", "attack_optimal_mitigation.scn")
    ]
    _, csv_seq, summary_seq = run_suite(configs, parallelism=1)
    _, csv_par, summary_par = run_suite(configs, parallelism=8)
    _, csv_again, _ = run_suite(configs, parallelism=8)
    elapsed = time.monotonic() - start
    assert csv_seq == csv_par == csv_again
    assert summary_seq == summary_par
    _report("8 byte-identical suite output at parallelism 1 and 8", elapsed)
