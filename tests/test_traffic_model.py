import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
    critical_density,
    flow_at_density,
    headroom,
    max_flow,
    speed_at_density,
    validate_network,
)
from sybil_atsc.networks import three_junction_reference
from sybil_atsc.sim import World

P = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)

params_st = st.builds(
    FundamentalDiagramParams,
    free_speed=st.floats(0.5, 60.0),
    jam_density=st.floats(0.01, 0.5),
)


class TestSpeedAtDensity:
    def test_zero_density_free_flow(self):
        assert speed_at_density(P, 0.0) == 35.0

    def test_jam_density_halts(self):
        assert speed_at_density(P, 0.16) == 0.0

    def test_linear_midpoint(self):
        assert speed_at_density(P, 0.08) == pytest.approx(17.5, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            speed_at_density(P, -0.01)
        with pytest.raises(ValueError):
            speed_at_density(P, 0.161)

    @given(params_st, st.floats(0.0, 1.0))
    def test_strictly_decreasing(self, params, frac):
        k = frac * params.jam_density
        k2 = min(params.jam_density, k + 1e-4)
        if k2 > k:
            assert speed_at_density(params, k2) < speed_at_density(params, k)


class TestFlowAtDensity:
    def test_empty_and_jammed_give_zero(self):
        assert flow_at_density(P, 0.0) == 0.0
        assert flow_at_density(P, 0.16) == 0.0

    def test_peak_value(self):
        assert flow_at_density(P, 0.08) == pytest.approx(1.4, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            flow_at_density(P, 0.2)

    @given(params_st, st.floats(0.0, 1.0))
    def test_flow_is_density_times_speed(self, params, frac):
        k = frac * params.jam_density
        q = flow_at_density(params, k)
        assert q == pytest.approx(k * speed_at_density(params, k), rel=1e-12, abs=1e-15)


class TestCriticalDensityAndMaxFlow:
    def test_half_jam_density(self):
        assert critical_density(P) == 0.08
        assert critical_density(FundamentalDiagramParams(10.0, 0.2)) == 0.1

    def test_invalid_params_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FundamentalDiagramParams(free_speed=35.0, jam_density=0.0)
        with pytest.raises(ValueError):
            FundamentalDiagramParams(free_speed=0.0, jam_density=0.16)
        with pytest.raises(ValueError):
            FundamentalDiagramParams(free_speed=-1.0, jam_density=0.1)

    def test_max_flow_values(self):
        assert max_flow(P) == pytest.approx(1.4, rel=1e-12)
        tiny = FundamentalDiagramParams(1e-4, 1e-4)
        assert max_flow(tiny) == pytest.approx(2.5e-9, rel=1e-12)

    @given(params_st)
    def test_vertex_identity(self, params):
        # flow at the critical density equals the closed-form capacity
        kc = critical_density(params)
        assert 0.0 < kc < params.jam_density
        q_at_kc = flow_at_density(params, kc)
        assert abs(q_at_kc - max_flow(params)) <= 1e-12 * max_flow(params)

    @given(params_st)
    def test_grid_never_exceeds_capacity(self, params):
        cap = max_flow(params)
        for i in range(257):
            k = params.jam_density * i / 256
            assert flow_at_density(params, k) <= cap + 1e-12

    def test_dense_sweep_on_reference_params(self):
        cap = max_flow(P)
        peak = max(flow_at_density(P, 0.16 * i / 4096) for i in range(4097))
        assert peak <= cap + 1e-12
        assert peak == pytest.approx(cap, rel=1e-6)


class TestHeadroom:
    def test_subtraction(self):
        assert headroom(P, 0.4) == pytest.approx(1.0, rel=1e-12)

    def test_at_capacity(self):
        assert headroom(P, max_flow(P)) == 0.0

    def test_oversaturated_clamps_to_zero(self):
        assert headroom(P, 2.0) == 0.0

    @given(params_st, st.floats(0.0, 5.0))
    def test_headroom_plus_used_is_capacity(self, params, q):
        cap = max_flow(params)
        assert headroom(params, q) + min(q, cap) == pytest.approx(cap, rel=1e-12)


def _lane(lane_id, sat=0.5, inflow=0.0, diagram=P):
    return Lane(id=lane_id, length=150.0, diagram=diagram,
                saturation_flow=sat, inflow_rate=inflow)


class TestValidateNetwork:
    def test_reference_network_is_clean(self):
        assert validate_network(three_junction_reference()) == []

    def test_unserved_lane(self):
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a"), _lane("b")),
            phase_table=(SignalPhase(id="p", served_lanes=("a",)),),
        )
        problems = validate_network(Network(junctions=(junction,)))
        assert any("unserved lane: b" in p for p in problems)

    def test_duplicate_lane_id(self):
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a"), _lane("a")),
            phase_table=(SignalPhase(id="p", served_lanes=("a",)),),
        )
        problems = validate_network(Network(junctions=(junction,)))
        assert any("duplicate lane id" in p for p in problems)

    def test_duplicate_phase_id(self):
        # a command names a phase by id, so two phases may not share one
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a"), _lane("b")),
            phase_table=(SignalPhase(id="p", served_lanes=("a",)),
                         SignalPhase(id="p", served_lanes=("b",))),
        )
        problems = validate_network(Network(junctions=(junction,)))
        assert problems == ["duplicate phase id at junction J"]

    def test_junction_with_no_phase(self):
        # no lane is left unserved, but the junction has no signal to set
        junction = Junction(id="J", approach_lanes=(), phase_table=())
        assert validate_network(Network(junctions=(junction,))) == ["junction J has no phase"]

    def test_phase_lookups(self):
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a"), _lane("b"), _lane("c")),
            phase_table=tuple(
                SignalPhase(id=f"p{lid}", served_lanes=(lid,)) for lid in "abc"
            ),
        )
        world = World(Network(junctions=(junction,)), None)
        phases = world.signals["J"].phases
        assert list(phases) == ["pa", "pb", "pc"]
        assert phases["pb"].spec is junction.phase_table[1]
        assert {pid: ph.next for pid, ph in phases.items()} == {
            "pa": "pb", "pb": "pc", "pc": "pa"
        }
        assert phases["pc"].served[0][0] is world.lane_states["c"]
        assert phases["pc"].served[0][0].lane is junction.approach_lanes[2]

    def test_saturation_above_capacity(self):
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a", sat=2.0),),  # capacity is 1.4
            phase_table=(SignalPhase(id="p", served_lanes=("a",)),),
        )
        problems = validate_network(Network(junctions=(junction,)))
        assert any("saturation exceeds capacity" in p for p in problems)

    def test_dangling_adjacency(self):
        junction = Junction(
            id="J",
            approach_lanes=(_lane("a"),),
            phase_table=(SignalPhase(id="p", served_lanes=("a",)),),
        )
        net = Network(junctions=(junction,), adjacency={"a": "ghost"})
        problems = validate_network(net)
        assert any("dangling adjacency" in p for p in problems)


class TestLaneInvariants:
    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Lane(id="x", length=0.0, diagram=P, saturation_flow=0.5)
        with pytest.raises(ValueError):
            Lane(id="x", length=10.0, diagram=P, saturation_flow=0.0)
        with pytest.raises(ValueError):
            Lane(id="x", length=10.0, diagram=P, saturation_flow=0.5, inflow_rate=-1.0)

    def test_nan_is_rejected_where_each_bound_lives(self):
        # a NaN inflow would draw no arrivals: the lane would silently have no demand
        with pytest.raises(ValueError, match="inflow_rate must be >= 0"):
            Lane(id="x", length=10.0, diagram=P, saturation_flow=0.5, inflow_rate=math.nan)
        with pytest.raises(ValueError, match="yellow must be >= 0"):
            SignalPhase(id="p", served_lanes=("a",), yellow=math.nan)

    def test_phase_bounds(self):
        with pytest.raises(ValueError):
            SignalPhase(id="p", served_lanes=("a",), min_green=0.0)
        with pytest.raises(ValueError):
            SignalPhase(id="p", served_lanes=("a",), min_green=10.0, max_green=5.0)

    def test_jam_capacity(self):
        assert _lane("a").jam_capacity == 24  # 0.16 veh/m over 150 m
        assert math.isclose(_lane("a").free_flow_time, 150.0 / 35.0)

    def test_jam_capacity_of_a_product_that_rounds_below_a_whole_vehicle(self):
        # 0.29 * 100.0 is 28.999999999999996: VEHICLE_TOL lifts it to 29
        diagram = FundamentalDiagramParams(free_speed=35.0, jam_density=0.29)
        assert Lane(id="x", length=100.0, diagram=diagram, saturation_flow=0.5).jam_capacity == 29
