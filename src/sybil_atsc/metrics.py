"""Trip-level evaluation metrics and per-scenario reporting."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

__all__ = [
    "TripRecord",
    "ScenarioReport",
    "trip_records",
    "mean_trip_waiting_time",
    "time_loss",
    "mean_time_loss",
    "improvement",
    "reports_to_csv",
    "trips_to_text",
    "aggregate",
    "summarize",
]

CSV_HEADER = "scenario,seed,mean_wait_s,mean_time_loss_s,trips,censored,policy,attack"


@dataclass(frozen=True)
class TripRecord:
    vehicle_id: str
    spawn_time: float
    depart_time: float
    accumulated_wait: float
    free_flow_time: float
    is_sybil: bool = False

    def __post_init__(self) -> None:
        if self.depart_time < self.spawn_time:
            raise ValueError(f"trip {self.vehicle_id}: departs before spawning")
        if self.accumulated_wait < 0.0:
            raise ValueError(f"trip {self.vehicle_id}: negative wait")


def trip_records(vehicles) -> list[TripRecord]:
    """Completed vehicle records, as metric-ready trips."""
    return [
        TripRecord(
            vehicle_id=v.id,
            spawn_time=v.spawn_time,
            depart_time=v.depart_time,
            accumulated_wait=v.accumulated_wait,
            free_flow_time=v.free_flow_time,
            is_sybil=v.is_sybil,
        )
        for v in vehicles
        if v.depart_time is not None
    ]


def _real(trips):
    return [t for t in trips if not t.is_sybil]


def mean_trip_waiting_time(trips) -> float:
    """Arithmetic mean wait over real completed trips; 0 when there are none.

    Phantom entries never have real waiting time, so any record flagged as
    fake is dropped before averaging.
    """
    real = _real(trips)
    if not real:
        return 0.0
    return sum(t.accumulated_wait for t in real) / len(real)


def time_loss(trip: TripRecord) -> float:
    """Trip duration beyond its free-flow duration, floored at zero."""
    return max(0.0, (trip.depart_time - trip.spawn_time) - trip.free_flow_time)


def mean_time_loss(trips) -> float:
    real = _real(trips)
    if not real:
        return 0.0
    return sum(time_loss(t) for t in real) / len(real)


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregates of one (scenario, seed) run plus its arm descriptors."""

    scenario: str
    seed: int
    mean_trip_waiting_time: float
    mean_time_loss: float
    trips_completed: int
    censored: int
    policy: str
    attack: str
    controller: str = ""
    flow_summary: dict[str, float] = field(default_factory=dict)
    mitigation_fallback: bool = False
    weights_log: tuple = ()


def improvement(reference: ScenarioReport, treated: ScenarioReport) -> float | None:
    """Percent time-loss reduction of `treated` against `reference`.

    None when the reference loss is zero: a ratio against nothing is not
    applicable, not infinite.
    """
    ref = reference.mean_time_loss
    if ref == 0.0:
        return None
    return 100.0 * (ref - treated.mean_time_loss) / ref


def reports_to_csv(reports) -> str:
    """Serialise reports to the fixed CSV schema, sorted for determinism."""
    lines = [CSV_HEADER]
    for r in sorted(reports, key=lambda r: (r.scenario, r.seed)):
        lines.append(
            f"{r.scenario},{r.seed},{r.mean_trip_waiting_time:.6f},"
            f"{r.mean_time_loss:.6f},{r.trips_completed},{r.censored},"
            f"{r.policy},{r.attack}"
        )
    return "\n".join(lines) + "\n"


def trips_to_text(trips) -> str:
    """Canonical line-per-trip form, used for byte-level log comparison."""
    lines = [
        f"{t.vehicle_id},{t.spawn_time:.6f},{t.depart_time:.6f},"
        f"{t.accumulated_wait:.6f},{t.free_flow_time:.6f}"
        for t in trips
    ]
    return "\n".join(lines) + "\n"


def aggregate(reports) -> dict[str, dict[str, float]]:
    """Per-scenario mean and sample standard deviation across seeds."""
    by_arm: dict[str, list[ScenarioReport]] = {}
    for r in reports:
        by_arm.setdefault(r.scenario, []).append(r)
    out: dict[str, dict[str, float]] = {}
    for arm, rs in sorted(by_arm.items()):
        waits = [r.mean_trip_waiting_time for r in rs]
        losses = [r.mean_time_loss for r in rs]
        out[arm] = {
            "seeds": len(rs),
            "mean_wait": _mean(waits),
            "sd_wait": _sd(waits),
            "mean_loss": _mean(losses),
            "sd_loss": _sd(losses),
            "trips": sum(r.trips_completed for r in rs),
            "censored": sum(r.censored for r in rs),
        }
    return out


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _sd(xs) -> float:
    if len(xs) < 2:
        return 0.0
    mu = _mean(xs)
    return math.sqrt(sum((x - mu) ** 2 for x in xs) / (len(xs) - 1))


def _find_arm(reports, *, controller=None, attack=None, policy=None):
    arms = {}
    for r in reports:
        if controller is not None and r.controller != controller:
            continue
        if attack == "any_attack":
            if r.attack == "none":
                continue
        elif attack is not None and r.attack != attack:
            continue
        if policy is not None and r.policy != policy:
            continue
        arms.setdefault(r.scenario, []).append(r)
    if not arms:
        return None, None
    name = sorted(arms)[0]
    return name, arms[name]


def summarize(reports) -> str:
    """Human-readable per-arm table plus the canonical ordering checks.

    Every arm with a seed whose optimal filter fell back to no filtering
    gets one more line, so a failed game solve is never silent.
    """
    stats = aggregate(reports)
    width = max([len(s) for s in stats] + [8])
    lines = [
        f"{'scenario':<{width}}  seeds  mean_wait_s  sd      mean_loss_s  sd      trips  censored"
    ]
    for arm, s in stats.items():
        lines.append(
            f"{arm:<{width}}  {s['seeds']:>5}  {s['mean_wait']:>11.2f}  "
            f"{s['sd_wait']:>6.2f}  {s['mean_loss']:>11.2f}  {s['sd_loss']:>6.2f}  "
            f"{s['trips']:>5}  {s['censored']:>8}"
        )

    def arm_loss(name):
        return stats[name]["mean_loss"] if name in stats else None

    baseline, _ = _find_arm(reports, controller="fixed", attack="none", policy="none")
    clean, _ = _find_arm(reports, controller="adaptive", attack="none", policy="none")
    fair, fair_reports = _find_arm(
        reports, controller="adaptive", attack="any_attack", policy="fair"
    )
    optimal, optimal_reports = _find_arm(
        reports, controller="adaptive", attack="any_attack", policy="optimal"
    )
    # compare the filtered arms against the unmitigated arm with the SAME attack
    ref_attack = "any_attack"
    for arm_reports in (optimal_reports, fair_reports):
        if arm_reports:
            ref_attack = arm_reports[0].attack
            break
    attacked, _ = _find_arm(
        reports, controller="adaptive", attack=ref_attack, policy="none"
    )

    checks = []
    if baseline and clean:
        gain = stats[baseline]["mean_wait"] - stats[clean]["mean_wait"]
        checks.append(
            f"adaptive vs fixed baseline: {gain:+.2f} s mean wait "
            f"({'better' if gain > 0 else 'WORSE'})"
        )
    if clean and attacked:
        rise = stats[attacked]["mean_wait"] - stats[clean]["mean_wait"]
        checks.append(f"attack impact on adaptive control: {rise:+.2f} s mean wait")
    if attacked and fair and arm_loss(attacked):
        pct = 100.0 * (arm_loss(attacked) - arm_loss(fair)) / arm_loss(attacked)
        checks.append(f"fair filtering improves time loss by {pct:.1f}%")
    if attacked and optimal and arm_loss(attacked):
        pct = 100.0 * (arm_loss(attacked) - arm_loss(optimal)) / arm_loss(attacked)
        checks.append(f"optimal filtering improves time loss by {pct:.1f}%")
    if attacked and fair and optimal:
        ok = arm_loss(optimal) <= arm_loss(fair) <= arm_loss(attacked)
        checks.append(
            "ordering optimal <= fair <= unmitigated: " + ("OK" if ok else "VIOLATED")
        )
    fell_back = Counter(r.scenario for r in reports if r.mitigation_fallback)
    checks.extend(
        f"mitigation fell back to no filtering: {arm} ({k} of {stats[arm]['seeds']} seeds)"
        for arm, k in sorted(fell_back.items())
    )
    if checks:
        lines.append("")
        lines.extend(checks)
    return "\n".join(lines) + "\n"
