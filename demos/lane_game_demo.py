"""Solve the attacker/defender lane game and read the strategies.

Demonstrates:
- building the lane game's impact vector (the diagonal of its payoff
  matrix) from capacities and flows
- solving both linear programs and checking the shared optimal value
- the closed-form shortcut for diagonal games
- turning the defensive mix into per-lane trust weights

Run directly: python demos/lane_game_demo.py
"""

import numpy as np

from sybil_atsc import (
    beta_to_weights,
    build_payoff_matrix,
    diagonal_closed_form,
    solve_game,
)


def example_1_two_lane_toy():
    print("\n" + "=" * 68)
    print("EXAMPLE 1: two lanes, impacts 1 and 3")
    print("=" * 68)
    u = build_payoff_matrix([1.5, 3.5], [0.5, 0.5])
    print("impacts (payoff diagonal):", u)
    sol = solve_game(u)
    print(f"attacker mix alpha = {tuple(round(p, 4) for p in sol.attacker.probs)}")
    print(f"defender mix beta  = {tuple(round(p, 4) for p in sol.defender.probs)}")
    print(f"value of the game  = {sol.value:.6f}")
    print("\nboth sides weight lanes by 1/impact: the defender leans on the")
    print("hard-to-attack lane, and the attacker must spread to stay unpredictable")


def example_2_duality_check():
    print("\n" + "=" * 68)
    print("EXAMPLE 2: the two programs agree, always")
    print("=" * 68)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        impacts = rng.uniform(0.05, 10.0, size=int(rng.integers(1, 16)))
        sol = solve_game(impacts)
        worst = max(worst, abs(sol.attacker_value - sol.defender_value))
    print(f"200 random games, worst max-min vs min-max gap: {worst:.3e}")
    print("the solver refuses to return a solution if that gap ever opens")


def example_3_closed_form_oracle():
    print("\n" + "=" * 68)
    print("EXAMPLE 3: closed form for diagonal games")
    print("=" * 68)
    impacts = [0.24, 0.30, 0.51, 0.51]
    sol = solve_game(impacts)
    oracle = diagonal_closed_form(impacts)
    print(f"impacts: {impacts}")
    print(f"LP value        {sol.value:.8f}")
    print(f"closed form     {oracle.value:.8f}")
    print(f"strategy L-inf  {max(abs(a - b) for a, b in zip(sol.attacker.probs, oracle.attacker.probs)):.2e}")
    print("\nharmonic weighting (p_i proportional to 1/u_i) is exact here,")
    print("so the simplex path can be validated independently of itself")


def example_4_trust_weights():
    print("\n" + "=" * 68)
    print("EXAMPLE 4: from defensive mix to per-lane trust")
    print("=" * 68)
    lane_ids = ["east", "west", "north", "south"]
    theta = {lid: 0.55 for lid in lane_ids}
    flows = {"east": 0.31, "west": 0.25, "north": 0.04, "south": 0.06}
    u = build_payoff_matrix(
        [theta[l] for l in lane_ids], [flows[l] for l in lane_ids]
    )
    sol = solve_game(u)
    weights = beta_to_weights(sol.defender, lane_ids)
    print(f"{'lane':>6}  {'flow':>5}  {'beta':>7}  {'trust w':>8}")
    for lid, beta in zip(lane_ids, sol.defender.probs):
        print(f"{lid:>6}  {flows[lid]:>5.2f}  {beta:>7.4f}  {weights[lid]:>8.3f}")
    print("\nbusy lanes keep full trust; quiet lanes, where phantoms can hide,")
    print("get their perceived counts discounted before the controller sees them")


if __name__ == "__main__":
    example_1_two_lane_toy()
    example_2_duality_check()
    example_3_closed_form_oracle()
    example_4_trust_weights()
