"""Road network model and the linear speed-density traffic relations.

Every lane carries the classic linear (Greenshields) speed-density law:
mean speed falls from the free speed on an empty lane to zero at the jam
density.  Flow q = k*v is then a downward parabola in k, peaking at
q_max = v_f*k_j/4 at the critical density k_j/2.  The gap between q_max
and the flow a lane actually carries is its headroom: the extra flow the
lane could plausibly absorb, and therefore the ceiling on how much phantom
traffic can be claimed on it without exceeding the physical envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

__all__ = [
    "FundamentalDiagramParams",
    "Lane",
    "SignalPhase",
    "Junction",
    "Network",
    "speed_at_density",
    "flow_at_density",
    "critical_density",
    "max_flow",
    "headroom",
    "validate_network",
]

# a product that should be a whole number of vehicles can round just below it
VEHICLE_TOL = 1e-9
# a rate or density checked against a bound worked out apart from it can round a few ulps past it
RATE_TOL = 1e-12


@dataclass(frozen=True)
class FundamentalDiagramParams:
    """Free speed v_f (m/s) and jam density k_j (veh/m) of one lane."""

    free_speed: float
    jam_density: float

    def __post_init__(self) -> None:
        if not self.free_speed > 0.0:
            raise ValueError(f"free_speed must be > 0, got {self.free_speed!r}")
        if not self.jam_density > 0.0:
            raise ValueError(f"jam_density must be > 0, got {self.jam_density!r}")
        if not math.isfinite(self.free_speed * self.jam_density):
            raise ValueError("free_speed * jam_density must be finite")


def _check_density(params: FundamentalDiagramParams, k: float) -> None:
    if k < 0.0 or k > params.jam_density:
        raise ValueError(
            f"density {k!r} outside [0, jam_density={params.jam_density!r}]"
        )


def speed_at_density(params: FundamentalDiagramParams, k: float) -> float:
    """Mean speed at density k: v_f*(1 - k/k_j); exactly v_f at 0, 0 at k_j."""
    _check_density(params, k)
    return params.free_speed * (1.0 - k / params.jam_density)


def flow_at_density(params: FundamentalDiagramParams, k: float) -> float:
    """Flow at density k: the parabola q = k * speed_at_density(k)."""
    _check_density(params, k)
    return params.free_speed * k * (1.0 - k / params.jam_density)


def critical_density(params: FundamentalDiagramParams) -> float:
    """Density at which flow peaks: half the jam density."""
    return params.jam_density / 2.0


def max_flow(params: FundamentalDiagramParams) -> float:
    """Lane capacity q_max = v_f*k_j/4, the parabola's vertex value."""
    return (params.free_speed * params.jam_density) / 4.0


def headroom(params: FundamentalDiagramParams, q_actual: float) -> float:
    """Capacity left over at an observed flow, clamped at 0.

    An observed flow above q_max (a noisy or oversaturated measurement)
    yields 0 rather than negative room: a negative injection rate has no
    meaning.
    """
    return max(0.0, max_flow(params) - q_actual)


@dataclass(frozen=True)
class Lane:
    """One approach segment: geometry, diagram, service and demand rates."""

    id: str
    length: float
    diagram: FundamentalDiagramParams
    saturation_flow: float
    inflow_rate: float = 0.0  # veh/s of exogenous Poisson arrivals

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError(f"lane {self.id!r}: length must be > 0")
        if not self.saturation_flow > 0.0:
            raise ValueError(f"lane {self.id!r}: saturation_flow must be > 0")
        if not self.inflow_rate >= 0.0:
            raise ValueError(f"lane {self.id!r}: inflow_rate must be >= 0")
        if not math.isfinite(self.diagram.jam_density * self.length):
            raise ValueError(f"lane {self.id!r}: jam_density * length must be finite")

    @cached_property
    def free_flow_time(self) -> float:
        return self.length / self.diagram.free_speed

    @cached_property
    def jam_capacity(self) -> int:
        """Whole vehicles that fit on the lane at jam density."""
        return int(self.diagram.jam_density * self.length + VEHICLE_TOL)


@dataclass(frozen=True)
class SignalPhase:
    """A green stage: the set of lanes it serves and its timing bounds."""

    id: str
    served_lanes: tuple[str, ...]
    min_green: float = 5.0
    max_green: float = 45.0
    yellow: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_green <= self.max_green:
            raise ValueError(
                f"phase {self.id!r}: need 0 < min_green <= max_green, "
                f"got {self.min_green}..{self.max_green}"
            )
        if not self.yellow >= 0.0:
            raise ValueError(f"phase {self.id!r}: yellow must be >= 0")


@dataclass(frozen=True)
class Junction:
    """A signalised junction: its approach lanes and its phase table."""

    id: str
    approach_lanes: tuple[Lane, ...]
    phase_table: tuple[SignalPhase, ...]


@dataclass
class Network:
    """Junctions plus the downstream wiring between lane exits and entries.

    A lane id missing from ``adjacency`` discharges to a sink (the trip ends
    when the vehicle clears the junction).
    """

    junctions: tuple[Junction, ...]
    adjacency: dict[str, str] = field(default_factory=dict)

    def lanes(self) -> list[Lane]:
        out: list[Lane] = []
        for junction in self.junctions:
            out.extend(junction.approach_lanes)
        return out

    def lane(self, lane_id: str) -> Lane:
        for ln in self.lanes():
            if ln.id == lane_id:
                return ln
        raise KeyError(f"no lane {lane_id!r}")


def validate_network(network: Network) -> list[str]:
    """Lint a network; an empty list means it is well-formed.

    Reported violations: duplicate lane ids, duplicate phase ids within a
    junction, lanes not served by any phase, phases naming unknown lanes,
    adjacency edges touching unknown lanes, and saturation flows above the
    lane's diagram capacity.
    """
    violations: list[str] = []
    seen: set[str] = set()
    all_ids: set[str] = set()
    for junction in network.junctions:
        for lane in junction.approach_lanes:
            if lane.id in seen:
                violations.append(f"duplicate lane id: {lane.id}")
            seen.add(lane.id)
            all_ids.add(lane.id)
            cap = max_flow(lane.diagram)
            if lane.saturation_flow > cap + RATE_TOL:
                violations.append(
                    f"saturation exceeds capacity on lane {lane.id}: "
                    f"{lane.saturation_flow} > {cap}"
                )
    for junction in network.junctions:
        served: set[str] = set()
        local = {ln.id for ln in junction.approach_lanes}
        if len({ph.id for ph in junction.phase_table}) < len(junction.phase_table):
            violations.append(f"duplicate phase id at junction {junction.id}")
        for phase in junction.phase_table:
            for lane_id in phase.served_lanes:
                if lane_id not in local:
                    violations.append(
                        f"phase {phase.id} serves unknown lane {lane_id}"
                    )
                served.add(lane_id)
        for lane in junction.approach_lanes:
            if lane.id not in served:
                violations.append(f"unserved lane: {lane.id}")
    for src, dst in network.adjacency.items():
        if src not in all_ids or dst not in all_ids:
            violations.append(f"dangling adjacency: {src} -> {dst}")
    return violations
