"""Pins the two fixtures: lane ids and order, demand, phases and wiring.

Arrival streams are keyed by (seed, lane id), so a renamed or reordered lane
silently changes every simulated trip; these tests fix both fixtures exactly.
"""

import pytest

from sybil_atsc.networks import grid, three_junction_reference


def phase_table(network):
    return [
        (j.id, p.id, p.served_lanes, p.min_green, p.max_green, p.yellow)
        for j in network.junctions
        for p in j.phase_table
    ]


class TestArterial:
    def test_lane_ids_order_and_inflows(self):
        net = three_junction_reference()
        assert [j.id for j in net.junctions] == ["J1", "J2", "J3"]
        assert [(ln.id, ln.inflow_rate) for ln in net.lanes()] == [
            ("J1:N", 50.0 / 3600.0), ("J1:S", 75.0 / 3600.0),
            ("J1:E", 0.0), ("J1:W", 1100.0 / 3600.0),
            ("J2:N", 50.0 / 3600.0), ("J2:S", 75.0 / 3600.0),
            ("J2:E", 0.0), ("J2:W", 0.0),
            ("J3:N", 50.0 / 3600.0), ("J3:S", 75.0 / 3600.0),
            ("J3:E", 900.0 / 3600.0), ("J3:W", 0.0),
        ]

    def test_geometry_and_diagram(self):
        for lane in three_junction_reference().lanes():
            assert lane.length == 150.0
            assert lane.saturation_flow == 0.5
            assert (lane.diagram.free_speed, lane.diagram.jam_density) == (35.0, 0.16)

    def test_phases(self):
        net = three_junction_reference(min_green=7.0, max_green=30.0, yellow=2.0)
        assert phase_table(net) == [
            (j, f"{j}:{p}", served, 7.0, 30.0, 2.0)
            for j in ("J1", "J2", "J3")
            for p, served in (("EW", (f"{j}:E", f"{j}:W")), ("NS", (f"{j}:N", f"{j}:S")))
        ]

    def test_adjacency(self):
        assert set(three_junction_reference().adjacency.items()) == {
            ("J1:W", "J2:W"), ("J2:W", "J3:W"), ("J3:E", "J2:E"), ("J2:E", "J1:E"),
        }

    def test_overrides_reach_every_lane(self):
        net = three_junction_reference(
            lane_length=90.0, free_speed=14.0, jam_density=0.157,
            saturation_flow=0.54, inflows_vph={"left": 720.0},
        )
        assert net.lane("J1:W").inflow_rate == 720.0 / 3600.0
        assert net.lane("J3:E").inflow_rate == 900.0 / 3600.0
        for lane in net.lanes():
            assert (lane.length, lane.saturation_flow) == (90.0, 0.54)
            assert (lane.diagram.free_speed, lane.diagram.jam_density) == (14.0, 0.157)


class TestGrid:
    def test_lane_ids_order_and_edge_inflows(self):
        net = grid(2, 3)
        names = [f"J{r}_{c}" for r in range(2) for c in range(3)]
        assert [j.id for j in net.junctions] == names
        assert [ln.id for ln in net.lanes()] == [
            f"{name}:{d}" for name in names for d in "NSEW"
        ]
        inflows = {ln.id: ln.inflow_rate for ln in net.lanes() if ln.inflow_rate}
        assert inflows == {
            "J0_0:N": 20.0 / 3600.0, "J0_1:N": 20.0 / 3600.0, "J0_2:N": 20.0 / 3600.0,
            "J1_0:S": 40.0 / 3600.0, "J1_1:S": 40.0 / 3600.0, "J1_2:S": 40.0 / 3600.0,
            "J0_0:W": 40.0 / 3600.0, "J1_0:W": 40.0 / 3600.0,
            "J0_2:E": 50.0 / 3600.0, "J1_2:E": 50.0 / 3600.0,
        }

    def test_lanes_per_direction_scale_the_approach(self):
        for lane in grid(2, 3, lanes_per_direction=3).lanes():
            assert lane.length == 500.0
            assert lane.saturation_flow == 0.5 * 3
            assert (lane.diagram.free_speed, lane.diagram.jam_density) == (35.0, 0.16 * 3)

    def test_phases(self):
        net = grid(2, 3)
        assert phase_table(net) == [
            (j.id, f"{j.id}:{p}", served, 5.0, 45.0, 3.0)
            for j in net.junctions
            for p, served in (
                ("EW", (f"{j.id}:E", f"{j.id}:W")), ("NS", (f"{j.id}:N", f"{j.id}:S"))
            )
        ]

    def test_continue_straight_wiring(self):
        assert set(grid(2, 3).adjacency.items()) == {
            # southbound (enters at the top) and northbound (enters at the bottom)
            ("J0_0:N", "J1_0:N"), ("J0_1:N", "J1_1:N"), ("J0_2:N", "J1_2:N"),
            ("J1_0:S", "J0_0:S"), ("J1_1:S", "J0_1:S"), ("J1_2:S", "J0_2:S"),
            # eastbound (enters on the left) and westbound (enters on the right)
            ("J0_0:W", "J0_1:W"), ("J0_1:W", "J0_2:W"),
            ("J1_0:W", "J1_1:W"), ("J1_1:W", "J1_2:W"),
            ("J0_2:E", "J0_1:E"), ("J0_1:E", "J0_0:E"),
            ("J1_2:E", "J1_1:E"), ("J1_1:E", "J1_0:E"),
        }

    @pytest.mark.parametrize("rows, cols", [(0, 3), (2, 0)])
    def test_empty_grid_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="rows"):
            grid(rows, cols)


@pytest.mark.parametrize("build", [three_junction_reference, grid])
def test_unknown_keyword_is_a_type_error(build):
    # the fixtures forward their diagram and timing keywords to one builder,
    # which still rejects a name it does not declare
    with pytest.raises(TypeError, match="free_sped"):
        build(free_sped=10.0)
