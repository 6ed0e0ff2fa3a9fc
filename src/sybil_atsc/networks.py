"""Prebuilt road networks: a three-junction arterial and an N x M grid.

Both fixtures come from one builder: the arterial is the 1 x 3 grid with
one lane per direction.  `FixtureParams` declares once the diagram, demand
and timing keywords both fixtures take, and their defaults; a fixture sets
only its shape, junction names, lane length and default demand.  Lane ids
are `<junction>:N|S|E|W`, and each lane's arrival stream is keyed by its
id, so a fixture's lane ids are part of every output it gives.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
)

# Reference demand, veh/h.  The arterial (left/right) runs heavily loaded
# while the cross streets stay light, so per-lane headroom differs strongly
# between them; that asymmetry is what both attacker and defender play on.
REFERENCE_INFLOWS_VPH = {"top": 50.0, "bottom": 75.0, "left": 1100.0, "right": 900.0}

# Grid demand, veh/h per entry edge.
GRID_INFLOWS_VPH = {"top": 20.0, "bottom": 40.0, "left": 40.0, "right": 50.0}


@dataclass(frozen=True)
class FixtureParams:
    """The diagram, demand and timing keywords both fixtures take, and
    their defaults; each fixture sets only its shape, names, lane length
    and default demand."""

    free_speed: float = 35.0
    jam_density: float = 0.16
    saturation_flow: float = 0.5
    # demand overrides, veh/h per entry direction; the fixture's defaults
    # fill in every direction not listed here
    inflows_vph: dict[str, float] | None = None
    min_green: float = 5.0
    max_green: float = 45.0
    yellow: float = 3.0


def _build(
    rows: int,
    cols: int,
    name: Callable[[int, int], str],
    default_inflows_vph: dict[str, float],
    *,
    lanes_per_direction: int,
    lane_length: float,
    **params,
) -> Network:
    """Rows x cols junctions, junction (r, c) named name(r, c).

    `params` are FixtureParams' keywords; any other name is a TypeError.
    Lane ids are `<junction>:N|S|E|W`; per-lane arrival streams are keyed
    by them, so both fixtures must keep producing the same ids.
    """
    p = FixtureParams(**params)
    if rows < 1 or cols < 1:
        raise ValueError("grid needs rows >= 1 and cols >= 1")
    flows = {**default_inflows_vph, **(p.inflows_vph or {})}
    diagram = FundamentalDiagramParams(
        free_speed=p.free_speed, jam_density=p.jam_density * lanes_per_direction
    )
    saturation = p.saturation_flow * lanes_per_direction
    timing = dict(min_green=p.min_green, max_green=p.max_green, yellow=p.yellow)

    def lane(lane_id, inflow_vph):
        return Lane(
            id=lane_id,
            length=lane_length,
            diagram=diagram,
            saturation_flow=saturation,
            inflow_rate=inflow_vph / 3600.0,
        )

    junctions = []
    adjacency: dict[str, str] = {}
    for r in range(rows):
        for c in range(cols):
            j = name(r, c)
            lanes = (
                lane(f"{j}:N", flows["top"] if r == 0 else 0.0),
                lane(f"{j}:S", flows["bottom"] if r == rows - 1 else 0.0),
                lane(f"{j}:E", flows["right"] if c == cols - 1 else 0.0),
                lane(f"{j}:W", flows["left"] if c == 0 else 0.0),
            )
            phases = (
                SignalPhase(id=f"{j}:EW", served_lanes=(f"{j}:E", f"{j}:W"), **timing),
                SignalPhase(id=f"{j}:NS", served_lanes=(f"{j}:N", f"{j}:S"), **timing),
            )
            junctions.append(Junction(id=j, approach_lanes=lanes, phase_table=phases))
            # continue-straight wiring; vehicles exit at the far edge
            if r + 1 < rows:
                adjacency[f"{j}:N"] = f"{name(r + 1, c)}:N"
            if r - 1 >= 0:
                adjacency[f"{j}:S"] = f"{name(r - 1, c)}:S"
            if c + 1 < cols:
                adjacency[f"{j}:W"] = f"{name(r, c + 1)}:W"
            if c - 1 >= 0:
                adjacency[f"{j}:E"] = f"{name(r, c - 1)}:E"
    return Network(junctions=tuple(junctions), adjacency=adjacency)


def three_junction_reference(*, lane_length: float = 150.0, **params) -> Network:
    """Three signalised junctions in a row along an east-west arterial.

    Eastbound traffic enters at J1's west approach and crosses all three
    junctions; westbound enters at J3's east approach and crosses them the
    other way.  Each junction also has a north and a south approach that
    discharge straight to a sink.  4 approaches per junction, 12 lanes total:
    the 1 x 3 grid with one lane per direction, junctions named J1..J3.
    `params` are FixtureParams' keywords.
    """
    return _build(
        1,
        3,
        lambda r, c: f"J{c + 1}",
        REFERENCE_INFLOWS_VPH,
        lanes_per_direction=1,
        lane_length=lane_length,
        **params,
    )


def grid(
    rows: int = 10,
    cols: int = 10,
    *,
    lanes_per_direction: int = 2,
    lane_length: float = 500.0,
    **params,
) -> Network:
    """Rows x cols grid of signalised junctions with edge inflows.

    Multiple physical lanes per direction are aggregated into one modelled
    approach whose jam density and saturation flow scale with the lane count.
    Southbound traffic enters along the top edge, northbound along the
    bottom, eastbound on the left and westbound on the right; every movement
    continues straight and exits at the far edge.  `params` are
    FixtureParams' keywords.
    """
    return _build(
        rows,
        cols,
        lambda r, c: f"J{r}_{c}",
        GRID_INFLOWS_VPH,
        lanes_per_direction=lanes_per_direction,
        lane_length=lane_length,
        **params,
    )
