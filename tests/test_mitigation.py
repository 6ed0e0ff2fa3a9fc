import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybil_atsc.controllers import PressureController
from sybil_atsc.game import GameSolverError, MixedStrategy
from sybil_atsc.mitigation import (
    MitigationPolicy,
    beta_to_weights,
    fair_policy,
    filter_perception,
    none_policy,
    optimal_policy,
)
from sybil_atsc.sim import PerceivedObservation, SimConfig, World
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
)

LANES_12 = [f"l{i}" for i in range(12)]


def obs(counts):
    """A snapshot of `counts`' lanes, in their order."""
    return PerceivedObservation(list(counts.values()), tuple(counts))


class TestComputeBeta:
    """The defender's mix beta, read through `optimal_policy`'s weights,
    min(1, beta_i * D)."""

    def test_uniform_impacts_give_uniform_beta(self):
        policy = optimal_policy(LANES_12, dict.fromkeys(LANES_12, 1.4),
                                dict.fromkeys(LANES_12, 0.0))
        assert policy.weights == dict.fromkeys(LANES_12, 1.0)

    def test_two_lane_toy(self):
        # impacts (1, 3): beta (0.75, 0.25)
        policy = optimal_policy(["a", "b"], {"a": 1.5, "b": 3.5}, {"a": 0.5, "b": 0.5})
        assert policy.weights == {"a": 1.0, "b": pytest.approx(0.5, abs=1e-9)}

    def test_zero_impact_lane_absorbs_confidence(self):
        # impacts (1, 0): beta (0, 1)
        policy = optimal_policy(["a", "b"], {"a": 1.0, "b": 1.0}, {"a": 0.0, "b": 1.0})
        assert policy.weights == {"a": 0.0, "b": 1.0}


class TestBetaToWeights:
    def test_uniform_beta_full_trust(self):
        beta = MixedStrategy(probs=(1 / 12,) * 12)
        weights = beta_to_weights(beta, LANES_12)
        assert all(w == 1.0 for w in weights.values())

    def test_scaled_and_capped(self):
        beta = MixedStrategy(probs=(0.75, 0.25))
        weights = beta_to_weights(beta, ["a", "b"])
        assert weights == {"a": 1.0, "b": pytest.approx(0.5)}

    def test_degenerate_full_trust_one_lane(self):
        beta = MixedStrategy(probs=(1.0, 0.0, 0.0))
        weights = beta_to_weights(beta, ["a", "b", "c"])
        assert weights == {"a": 1.0, "b": 0.0, "c": 0.0}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            beta_to_weights(MixedStrategy(probs=(1.0,)), ["a", "b"])


class TestFilterPerception:
    def test_none_policy_is_bitwise_noop(self):
        policy = none_policy(["a", "b"])
        raw = obs({"a": 3.0, "b": 7.0})
        assert filter_perception(raw, policy) is raw

    def test_sixty_percent_trust(self):
        policy = MitigationPolicy(kind="optimal", weights={"a": 0.6, "b": 1.0})
        filtered = filter_perception(obs({"a": 10.0, "b": 4.0}), policy)
        assert filtered.lanes == ("a", "b")
        assert filtered.counts == [pytest.approx(6.0), pytest.approx(4.0)]

    def test_fair_policy_halves_counts(self):
        policy = fair_policy(["a", "b"])
        filtered = filter_perception(obs({"a": 10.0, "b": 20.0}), policy)
        assert filtered.lanes == ("a", "b")
        assert filtered.counts == [5.0, 10.0]

    def test_only_lanes_short_of_full_trust_are_multiplied(self):
        weights = {"a": 1.0, "b": 0.5, "c": 1.0, "d": 0.0, "e": 0.25}
        policy = MitigationPolicy(kind="optimal", weights=weights)
        assert policy.discounts == ((1, 0.5), (3, 0.0), (4, 0.25))
        raw = obs({"a": 3.0, "b": 7.0, "c": 0.1, "d": 9.0, "e": 4.0})
        filtered = filter_perception(raw, policy)
        assert filtered.counts == [3.0, 3.5, 0.1, 0.0, 1.0]
        assert raw.counts == [3.0, 7.0, 0.1, 9.0, 4.0]  # the input is not changed

    @pytest.mark.parametrize("make", [
        none_policy,
        fair_policy,
        lambda lanes: MitigationPolicy(kind="optimal", weights={"a": 0.5, "b": 1.0}),
    ], ids=["none", "fair", "optimal"])
    def test_the_input_snapshot_keeps_its_list_and_counts(self, make):
        # a snapshot is a tuple holding a mutable list: a filter that scaled
        # it in place would change what the caller of observe() holds
        raw = obs({"a": 3.0, "b": 7.0})
        counts = raw.counts
        filtered = filter_perception(raw, make(raw.lanes))
        assert raw.counts is counts and counts == [3.0, 7.0]
        assert filtered is raw or filtered.counts is not counts

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6) | st.integers(0, 50).map(float),
                st.just(1.0) | st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_sparse_filter_has_the_bits_of_a_full_multiply(self, lanes):
        counts = {f"l{i}": c for i, (c, _) in enumerate(lanes)}
        weights = {f"l{i}": w for i, (_, w) in enumerate(lanes)}
        filtered = filter_perception(obs(counts), MitigationPolicy("optimal", weights))
        full = [c * w for c, w in lanes]
        assert [x.hex() for x in filtered.counts] == [x.hex() for x in full]

    def test_filtering_is_load_monotone(self):
        policy = MitigationPolicy(kind="optimal", weights={"a": 0.3, "b": 0.9})
        raw = obs({"a": 5.5, "b": 2.0})
        filtered = filter_perception(raw, policy)
        assert filtered.lanes == raw.lanes
        assert len(filtered.counts) == len(raw.counts)
        for f, r in zip(filtered.counts, raw.counts):
            assert f <= r

    @pytest.mark.parametrize("kind", ["none", "optimal"])
    @pytest.mark.parametrize(
        "weights",
        [{"b": 0.5, "a": 1.0}, {"a": 1.0}, {"a": 1.0, "b": 0.5, "c": 1.0}],
        ids=["reordered", "missing", "extra"],
    )
    def test_refuses_weights_in_another_lane_order(self, kind, weights):
        policy = MitigationPolicy(kind=kind, weights=weights)
        with pytest.raises(ValueError, match="lane order"):
            filter_perception(obs({"a": 10.0, "b": 4.0}), policy)

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            MitigationPolicy(kind="optimal", weights={"a": 1.5})
        with pytest.raises(ValueError):
            MitigationPolicy(kind="bogus", weights={})

    def test_a_weight_one_ulp_above_1_is_rejected(self):
        # beta_to_weights caps every weight at exactly 1.0, so no rounding
        # can leave one above it
        with pytest.raises(ValueError, match="out of"):
            MitigationPolicy(kind="optimal", weights={"a": math.nextafter(1.0, 2.0)})


class TestOptimalPolicy:
    def test_composes_game_and_mapping(self):
        theta = {"a": 1.5, "b": 3.5}
        flows = {"a": 0.5, "b": 0.5}
        policy = optimal_policy(["a", "b"], theta, flows)
        assert policy.kind == "optimal"
        assert policy.weights["a"] == pytest.approx(1.0)
        assert policy.weights["b"] == pytest.approx(0.5)

    def test_equal_impacts_give_exactly_full_trust(self):
        # the game's uniform mix times D can round below 1 (first at D = 5
        # with impact 2.8), but the uniform mix promises full trust
        for d in range(1, 501):
            lanes = [f"l{i}" for i in range(d)]
            for impact in (0.5, 2.8, 1 / 3):
                theta = dict.fromkeys(lanes, impact)
                policy = optimal_policy(lanes, theta, dict.fromkeys(lanes, 0.0))
                assert set(policy.weights.values()) == {1.0}, (d, impact)

    def test_solver_error_propagates(self):
        # impacts (1e-310, 1): 1/u_0 is past the float range, and the caller
        # (the scenario runner) is the one that degrades to no filtering
        theta = {"a": 1e-310, "b": 1.0}
        flows = {"a": 0.0, "b": 0.0}
        with pytest.raises(GameSolverError):
            optimal_policy(["a", "b"], theta, flows)


class TestControllerInteraction:
    def decide(self, perceived, cfg):
        """The pressure decision on junction J, 10 s into its NS green:
        the commands, and the last-decision times afterwards."""
        diagram = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)
        lanes = tuple(
            Lane(id=d, length=70.0, diagram=diagram, saturation_flow=0.5)
            for d in ("N", "S", "E", "W")
        )
        phases = (
            SignalPhase(id="NS", served_lanes=("N", "S")),
            SignalPhase(id="EW", served_lanes=("E", "W")),
        )
        junction = Junction(id="J", approach_lanes=lanes, phase_table=phases)
        world = World(Network(junctions=(junction,)), SimpleNamespace(decide=lambda w, t: {}),
                      config=cfg)
        for _ in range(10):
            world.step()
        # the controller sees the world at its step through this snapshot
        seen = SimpleNamespace(signals=world.signals, step_sums=world.step_sums,
                               step_index=world.step_index, observe=lambda: perceived)
        controller = PressureController(world.network, cfg)
        commands = controller.decide(seen, 0.0)
        return commands, controller._last_decision

    def test_filtering_changes_decision_only_by_reordering(self):
        cfg = SimConfig()
        # phantom-inflated EW beats NS raw; discounting EW restores NS
        raw = obs({"N": 6.0, "S": 2.0, "E": 9.0, "W": 3.0})
        unmitigated = self.decide(raw, cfg)
        assert unmitigated == ({"J": "EW"}, {"J": 0.0})
        policy = MitigationPolicy(
            kind="optimal", weights={"N": 1.0, "S": 1.0, "E": 0.5, "W": 0.5}
        )
        filtered = filter_perception(raw, policy)
        mitigated = self.decide(filtered, cfg)
        assert mitigated == ({}, {"J": 0.0})  # decided, and NS stays

    def test_identical_weights_keep_argmax(self):
        cfg = SimConfig(switch_penalty=0.0)
        raw = obs({"N": 6.0, "S": 2.0, "E": 5.0, "W": 2.0})
        policy = fair_policy(["N", "S", "E", "W"])
        a = self.decide(raw, cfg)
        b = self.decide(filter_perception(raw, policy), cfg)
        assert a == b


class TestFallback:
    def test_solver_failure_degrades_to_none_and_flags(self, scenario_dir, monkeypatch):
        from dataclasses import replace
        import sybil_atsc.scenario as scenario_mod
        from sybil_atsc.game import GameSolverError
        from sybil_atsc.metrics import summarize
        from sybil_atsc.scenario import parse_scenario, run_single

        def boom(*args, **kwargs):
            raise GameSolverError("forced failure")

        monkeypatch.setattr(scenario_mod, "optimal_policy", boom)
        config = parse_scenario(scenario_dir / "attack_optimal_mitigation.scn")
        config = replace(config, horizon=400.0)
        report = run_single(config, 1)
        assert report.mitigation_fallback is True
        assert report.policy == "optimal"  # the configured arm is still reported
        assert all(kind == "none" for _, kind, _ in report.weights_log)
        clean = replace(report, seed=2, weights_log=())
        line = f"mitigation fell back to no filtering: {report.scenario} (1 of 2 seeds)"
        assert summarize([report, clean]).splitlines()[-1] == line
        assert summarize([clean, replace(clean, seed=3)]).count("fell back") == 0

    def test_flag_stays_set_after_a_later_recompute_succeeds(
        self, scenario_dir, monkeypatch
    ):
        from dataclasses import replace
        import sybil_atsc.scenario as scenario_mod
        from sybil_atsc.game import GameSolverError
        from sybil_atsc.scenario import parse_scenario, run_single

        real = scenario_mod.optimal_policy
        calls = []

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise GameSolverError("forced failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario_mod, "optimal_policy", first_fails)
        config = parse_scenario(scenario_dir / "attack_optimal_mitigation.scn")
        report = run_single(replace(config, horizon=700.0), 1)  # recomputes at 0, 300, 600
        assert [kind for _, kind, _ in report.weights_log] == ["none", "optimal", "optimal"]
        assert report.mitigation_fallback is True

    def test_nan_out_of_the_lp_degrades_to_none(self, scenario_dir, nan_lp):
        from dataclasses import replace
        from sybil_atsc.scenario import parse_scenario, run_single

        config = parse_scenario(scenario_dir / "attack_optimal_mitigation.scn")
        report = run_single(replace(config, horizon=400.0), 1)  # before the attack
        assert report.mitigation_fallback is True
        assert [kind for _, kind, _ in report.weights_log] == ["none", "none"]
