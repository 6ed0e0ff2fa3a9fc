"""Planning and execution of coordinated phantom-vehicle injection.

A plan assigns each lane a fake-message rate, bounded by that lane's flow
headroom so the claimed traffic never exceeds what the lane could really
carry.  Injection is intermittent -- phantoms appear for a burst, vanish,
reappear -- and touches only the perception snapshot: the physical queues
never see a phantom.  It is a pure function of the plan and the clock.

An attack arm's config builds one `AttackPlan` when it is made and keeps it
as `config.attack_window`: the configured start and duty cycle, the
resolved duration (`auto` = until the horizon) and the resolved budget
(`auto` = 0.3 x the lanes' summed capacity), with no rates.  The plan
checks its own duty cycle, duration and budget, so a bad value fails the
config with the plan's message.  Each run holds the live plan in a local
that the attack tap reads from t = 0, starting from the window, and each
replan inside the window hands the live plan to a planner, which returns
it with only `per_lane_rate` filled in.  The greedy planner dumps the
budget on the single worst-delay phase; the game planner distributes it
per the max-min mix, clamped by per-lane headroom, and can focus on one
phase per junction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .game import build_payoff_matrix, solve_maxmin
from .sim import TIME_TOL
from .traffic_model import RATE_TOL, VEHICLE_TOL, Network, critical_density, headroom

__all__ = [
    "ATTACK_KINDS",
    "AttackPlan",
    "plan_greedy_attack",
    "plan_optimal_attack",
    "inject",
]

ATTACK_KINDS = ("none", "greedy_critical_phase", "game_optimal")

# veh/s by which rates may pass a budget too small for the relative RATE_TOL to cover their rounding
_BUDGET_FLOOR = 1e-9


@dataclass(frozen=True)
class AttackPlan:
    """Per-lane phantom rates plus the window, duty cycle and budget they
    are applied in, each bound checked here.  An arm's config builds one
    plan with no rates; each replan returns it with only the rates filled in."""

    per_lane_rate: dict[str, float]
    start_time: float
    duration: float
    duty_on: float
    duty_off: float
    total_budget: float

    def __post_init__(self) -> None:
        # written `not x > b` so that NaN fails too
        if not self.start_time >= 0.0:
            raise ValueError("attack start must be >= 0")
        if not self.duty_on > 0.0:
            raise ValueError("duty_on must be > 0")
        if not self.duty_off >= 0.0:
            raise ValueError("duty_off must be >= 0")
        if not self.duration >= 0.0:
            raise ValueError("duration must be >= 0")
        if not self.total_budget > 0.0:
            raise ValueError("budget must be > 0")
        if not all(r >= 0.0 for r in self.per_lane_rate.values()):
            raise ValueError("per-lane rates must be >= 0")
        # the slack is relative too: a sum of rates that split a large budget
        # can round a few ulps above it
        total = sum(self.per_lane_rate.values())
        if total > self.total_budget * (1 + RATE_TOL) + _BUDGET_FLOOR:
            raise ValueError(
                f"rates sum to {total}, above the budget {self.total_budget}"
            )

    @cached_property
    def targets(self) -> tuple[tuple[str, float], ...]:
        """(lane id, rate) of each lane whose rate is not 0, in plan order."""
        return tuple((lid, r) for lid, r in self.per_lane_rate.items() if not r <= 0.0)

    @property
    def is_empty(self) -> bool:
        return not self.targets


def _water_fill(lane_ids: list[str], caps: dict[str, float], budget: float) -> dict[str, float]:
    """Split a budget over lanes, none above its cap, spilling the excess on."""
    rates = {lid: 0.0 for lid in lane_ids}
    active = [lid for lid in lane_ids if caps[lid] > 0.0]
    remaining = budget
    while active and remaining > RATE_TOL:
        share = remaining / len(active)
        capped = [lid for lid in active if caps[lid] <= share + RATE_TOL]
        if not capped:
            for lid in active:
                rates[lid] = share
            return rates
        for lid in capped:
            rates[lid] = caps[lid]
            remaining -= caps[lid]
            active.remove(lid)
    return rates


def plan_greedy_attack(
    network: Network,
    delays: dict[str, float],
    densities: dict[str, float],
    flows: dict[str, float],
    plan: AttackPlan,
) -> AttackPlan:
    """Dump the plan's whole budget on the single worst-delay phase.

    Only lanes still in the low-to-medium density band (at or below critical
    density) are worth faking traffic on; a congested lane already looks
    busy.  If no lane qualifies the plan comes back empty rather than
    failing: the caller can see `is_empty` and log it.  Returns `plan` with
    only its rates replaced; its window, duty cycle and budget are kept.
    """
    budget = plan.total_budget
    lanes = {ln.id: ln for ln in network.lanes()}
    eligible = {
        lid
        for lid, lane in lanes.items()
        if densities.get(lid, 0.0) <= critical_density(lane.diagram) + RATE_TOL
    }
    best = None  # (delay score, junction index, phase index)
    for j_idx, junction in enumerate(network.junctions):
        for p_idx, phase in enumerate(junction.phase_table):
            score = sum(delays.get(lid, 0.0) for lid in phase.served_lanes)
            key = (-score, j_idx, p_idx)
            if best is None or key < best[0]:
                best = (key, phase)
    targets: list[str] = []
    if best is not None:
        targets = [lid for lid in best[1].served_lanes if lid in eligible]
    caps = {
        lid: headroom(lanes[lid].diagram, flows.get(lid, 0.0)) for lid in targets
    }
    rates = _water_fill(targets, caps, budget)
    return replace(plan, per_lane_rate={lid: rates.get(lid, 0.0) for lid in lanes})


def plan_optimal_attack(
    lane_ids: list[str],
    theta: dict[str, float],
    f: dict[str, float],
    plan: AttackPlan,
    *,
    focus_groups: list[list[list[str]]] | None = None,
) -> AttackPlan:
    """Distribute the plan's budget over lanes per the max-min game mix.

    Each lane gets alpha_j * budget, clamped by its headroom.  When
    focus_groups is given (per junction, the lane-id sets of its competing
    phases), only the phase carrying the heaviest planned rate keeps its
    allocation at each junction: phantoms split across competing phases of
    one junction largely cancel in the controller's comparison, so a focused
    plan claims a single movement per junction and re-bids the freed
    probability over the survivors.  Returns `plan` with only its rates
    replaced.  Solver failures propagate: an optimal attack with a broken
    game is a contradiction.
    """
    budget = plan.total_budget
    theta_vec = [theta[lid] for lid in lane_ids]
    f_vec = [f[lid] for lid in lane_ids]
    u = build_payoff_matrix(theta_vec, f_vec)  # per-lane headroom
    alpha, _rho = solve_maxmin(u)
    caps = dict(zip(lane_ids, u.tolist()))
    weights = dict(zip(lane_ids, alpha.probs))
    rates = {lid: min(weights[lid] * budget, caps[lid]) for lid in lane_ids}
    if focus_groups:
        # one target movement per junction: keep the phase whose lanes carry
        # the heaviest planned rate, re-bid the freed probability
        keep: set[str] = set()
        for phases in focus_groups:
            ranked = sorted(
                phases,
                key=lambda lane_set: (
                    -sum(rates.get(lid, 0.0) for lid in lane_set),
                    tuple(lane_set),
                ),
            )
            if ranked:
                keep.update(ranked[0])
        weights = {lid: (weights[lid] if lid in keep else 0.0) for lid in lane_ids}
        total_w = sum(weights.values())
        if total_w > 0.0:
            weights = {lid: w / total_w for lid, w in weights.items()}
        rates = {lid: min(weights[lid] * budget, caps[lid]) for lid in lane_ids}
    return replace(plan, per_lane_rate=rates)


def inject(plan: AttackPlan, t: float, dt: float) -> dict[str, int]:
    """Phantom vehicles visible on each lane during the step starting at t.

    Inside the attack window, each on-burst grows phantoms at the planned
    per-lane rate (whole vehicles only, fractional credit carries within the
    burst) and every off-interval removes them all.  A pure function of
    (plan, t, dt): safe to call from any number of worlds at once, and
    incapable of touching physical state.
    """
    if t + TIME_TOL < plan.start_time or t >= plan.start_time + plan.duration - TIME_TOL:
        return {}
    cycle = plan.duty_on + plan.duty_off
    pos = (t - plan.start_time) % cycle
    if pos >= plan.duty_on - TIME_TOL:
        return {}  # off interval: phantoms removed
    visible = min(pos + dt, plan.duty_on)
    out: dict[str, int] = {}
    for lid, rate in plan.targets:
        count = int(math.floor(rate * visible + VEHICLE_TOL))
        if count > 0:
            out[lid] = count
    return out
