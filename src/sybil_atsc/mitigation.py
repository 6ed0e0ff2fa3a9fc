"""Perception filtering: turn the defensive game mix into per-lane trust.

The defender's mixed strategy beta says how much confidence each lane's
reports deserve.  Scaled by the lane count and capped at 1, it becomes a
trust weight, w_i = min(1, beta_i * D): a uniform beta (no information)
maps to full trust everywhere, and lanes with more spare capacity -- more
room for phantoms -- get proportionally discounted.  The filter multiplies
perceived counts by these weights before the controller sees them.  The
fair fallback trusts every lane at 0.5, and `none` is a strict no-op.

A policy's weights are keyed by lane id in the order they were given.  The
filter copies the snapshot's count list and multiplies only the counts
whose weight is not exactly 1.0 (x * 1.0 == x for every float), whose
(index, weight) pairs the policy caches.  On the 10x10 grid's 400 lanes,
120 to 212 weights are exactly 1.0 after t = 0 (seeds 1 and 11), and all
400 at t = 0.  The filter pairs weights with counts by index, so it
accepts only a policy whose lanes are the snapshot's, in its order, and
raises ValueError otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .game import MixedStrategy, build_payoff_matrix, solve_minimax
from .sim import PerceivedObservation

__all__ = [
    "MITIGATION_KINDS",
    "MitigationPolicy",
    "beta_to_weights",
    "filter_perception",
    "none_policy",
    "fair_policy",
    "optimal_policy",
]

MITIGATION_KINDS = ("none", "fair", "optimal")


@dataclass(frozen=True)
class MitigationPolicy:
    """An immutable trust-weight snapshot; swap whole policies atomically."""

    kind: str
    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in MITIGATION_KINDS:
            raise ValueError(f"unknown mitigation kind {self.kind!r}")
        for lid, w in self.weights.items():
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"trust weight for {lid} out of [0, 1]: {w}")

    @cached_property
    def lanes(self) -> tuple[str, ...]:
        """The lane ids of `weights`, in their order."""
        return tuple(self.weights)

    @cached_property
    def discounts(self) -> tuple[tuple[int, float], ...]:
        """(index in `lanes`, weight) of each weight that is not exactly 1.0."""
        return tuple((i, w) for i, w in enumerate(self.weights.values()) if w != 1.0)


def none_policy(lane_ids) -> MitigationPolicy:
    return MitigationPolicy(kind="none", weights={lid: 1.0 for lid in lane_ids})


def fair_policy(lane_ids) -> MitigationPolicy:
    """Count half the vehicles on every lane, regardless of exposure."""
    return MitigationPolicy(kind="fair", weights={lid: 0.5 for lid in lane_ids})


def beta_to_weights(beta: MixedStrategy, lane_ids) -> dict[str, float]:
    """Map a probability vector over D lanes to per-lane trust in [0, 1].

    w_i = min(1, beta_i * D), so relative trust follows beta exactly.  The
    uniform mix maps to exactly 1 everywhere, since p * D can round below 1.
    """
    lane_ids = list(lane_ids)
    d = len(lane_ids)
    if len(beta) != d:
        raise ValueError(f"beta has {len(beta)} entries for {d} lanes")
    if min(beta.probs) == max(beta.probs):
        return dict.fromkeys(lane_ids, 1.0)
    return {lid: min(1.0, p * d) for lid, p in zip(lane_ids, beta.probs)}


def optimal_policy(
    lane_ids, theta: dict[str, float], f: dict[str, float]
) -> MitigationPolicy:
    """The trust weights of the defender's min-max mix for these capacities
    and flows.

    Solver failures propagate to the caller, which should degrade to the
    no-op policy and flag the run rather than guess.
    """
    lane_ids = list(lane_ids)
    u = build_payoff_matrix([theta[lid] for lid in lane_ids], [f[lid] for lid in lane_ids])
    beta, _phi = solve_minimax(u)
    return MitigationPolicy(kind="optimal", weights=beta_to_weights(beta, lane_ids))


def filter_perception(
    obs: PerceivedObservation, policy: MitigationPolicy
) -> PerceivedObservation:
    """Scale perceived counts by per-lane trust; the no-op policy is exact.

    Raises ValueError unless the policy weighs the snapshot's lanes in the
    snapshot's order.
    """
    if policy.lanes != obs.lanes:
        raise ValueError("trust weights are not in the snapshot's lane order")
    if policy.kind == "none":
        return obs
    counts = list(obs.counts)
    for i, w in policy.discounts:
        counts[i] *= w
    return PerceivedObservation(counts, obs.lanes)
