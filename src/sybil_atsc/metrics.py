"""Trip-level evaluation metrics and per-scenario reporting.

The trip metrics, mean waiting time and time loss, are read straight off
the completed vehicle records; phantom vehicles never become records, so
every trip is real.  A run's `ScenarioReport` serialises to the reports CSV
in one fixed schema, sorted by (scenario, seed).  `summarize` adds a
per-arm table across seeds and the canonical ordering checks, with the
percent by which each filter cuts the unmitigated attack's time loss
(`improvement`), and one line per arm whose optimal filter fell back to
no filtering on some seed: `mitigation fell back to no filtering: <arm>
(k of n seeds)`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .sim import VehicleRecord

__all__ = [
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


def trip_records(vehicles) -> list[VehicleRecord]:
    """The completed vehicles, in order; raises ValueError on an impossible trip."""
    trips = [v for v in vehicles if v.depart_time is not None]
    for v in trips:
        if v.depart_time < v.spawn_time:
            raise ValueError(f"trip {v.id}: departs before spawning")
        if v.accumulated_wait < 0.0:
            raise ValueError(f"trip {v.id}: negative wait")
    return trips


def mean_trip_waiting_time(trips) -> float:
    """Arithmetic mean wait over completed trips; 0 when there are none.

    Phantom vehicles never become records, so every trip here is real.
    """
    return _mean([t.accumulated_wait for t in trips])


def time_loss(trip: VehicleRecord) -> float:
    """Trip duration beyond its free-flow duration, floored at zero."""
    return max(0.0, (trip.depart_time - trip.spawn_time) - trip.free_flow_time)


def mean_time_loss(trips) -> float:
    return _mean([time_loss(t) for t in trips])


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregates of one (scenario, seed) run plus its arm descriptors.

    `weights_log` holds one (time, policy kind, weights) entry per policy
    recompute of the optimal filter; the fallback flag is read from it.
    """

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
    weights_log: tuple = ()

    @property
    def mitigation_fallback(self) -> bool:
        """True if any recompute fell back to no filtering, whatever came after."""
        return any(kind == "none" for _, kind, _ in self.weights_log)


def improvement(reference_loss: float, treated_loss: float) -> float | None:
    """Percent time-loss reduction of `treated_loss` against `reference_loss`.

    None when the reference loss is zero: a ratio against nothing is not
    applicable, not infinite.
    """
    if reference_loss == 0.0:
        return None
    return 100.0 * (reference_loss - treated_loss) / reference_loss


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
        f"{t.id},{t.spawn_time:.6f},{t.depart_time:.6f},"
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

    loss = {arm: s["mean_loss"] for arm, s in stats.items()}
    arms = {}  # each arm's (controller, attack, policy), in name order
    for r in sorted(reports, key=lambda r: r.scenario):
        arms.setdefault(r.scenario, (r.controller, r.attack, r.policy))

    def first(controller, policy, attack=None):
        """The first arm by name of this controller, policy and attack; an
        attack of None matches every attack but "none"."""
        for name, (c, a, p) in arms.items():
            if c == controller and p == policy and (a == attack if attack else a != "none"):
                return name
        return None

    baseline = first("fixed", "none", "none")
    clean = first("adaptive", "none", "none")
    fair = first("adaptive", "fair")
    optimal = first("adaptive", "optimal")
    # compare the filtered arms against the unmitigated arm with the SAME attack
    reference = optimal or fair
    attacked = first("adaptive", "none", arms[reference][1] if reference else None)

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
    for policy, filtered in (("fair", fair), ("optimal", optimal)):
        if attacked and filtered:
            pct = improvement(loss[attacked], loss[filtered])
            if pct is not None:
                checks.append(f"{policy} filtering improves time loss by {pct:.1f}%")
    if attacked and fair and optimal:
        ok = loss[optimal] <= loss[fair] <= loss[attacked]
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
