import pytest

from sybil_atsc.controllers import adaptive_decide
from sybil_atsc.game import MixedStrategy
from sybil_atsc.mitigation import (
    MitigationPolicy,
    beta_to_weights,
    compute_beta,
    fair_policy,
    filter_perception,
    none_policy,
    optimal_policy,
)
from sybil_atsc.sim import PerceivedObservation, SignalState, SimConfig
from sybil_atsc.traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    SignalPhase,
)

LANES_12 = [f"l{i}" for i in range(12)]


def obs(counts):
    return PerceivedObservation(counts=dict(counts))


class TestComputeBeta:
    def test_uniform_impacts_give_uniform_beta(self):
        beta = compute_beta([1.4] * 12, [0.0] * 12)
        assert beta.probs == pytest.approx((1 / 12,) * 12, abs=1e-9)

    def test_two_lane_toy(self):
        beta = compute_beta([1.5, 3.5], [0.5, 0.5])  # impacts (1, 3)
        assert beta.probs == pytest.approx((0.75, 0.25), abs=1e-9)

    def test_zero_impact_lane_absorbs_confidence(self):
        beta = compute_beta([1.0, 1.0], [0.0, 1.0])  # impacts (1, 0)
        assert beta.probs == pytest.approx((0.0, 1.0), abs=1e-9)

    def test_impact_floor_flag(self):
        beta = compute_beta([1.0, 1.0], [0.0, 1.0], impact_floor_ratio=1e-3)
        assert beta.probs[0] > 0.0


class TestBetaToWeights:
    def test_uniform_beta_full_trust(self):
        beta = MixedStrategy(probs=(1 / 12,) * 12)
        weights = beta_to_weights(beta, LANES_12)
        assert all(w == pytest.approx(1.0) for w in weights.values())

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
        assert filtered.counts["a"] == pytest.approx(6.0)
        assert filtered.counts["b"] == pytest.approx(4.0)

    def test_fair_policy_halves_counts(self):
        policy = fair_policy(["a", "b"])
        filtered = filter_perception(obs({"a": 10.0, "b": 20.0}), policy)
        assert filtered.counts == {"a": 5.0, "b": 10.0}

    def test_filtering_is_load_monotone(self):
        policy = MitigationPolicy(kind="optimal", weights={"a": 0.3, "b": 0.9})
        raw = obs({"a": 5.5, "b": 2.0})
        filtered = filter_perception(raw, policy)
        for lid in raw.counts:
            assert filtered.counts[lid] <= raw.counts[lid]

    def test_weight_bounds_enforced(self):
        with pytest.raises(ValueError):
            MitigationPolicy(kind="optimal", weights={"a": 1.5})
        with pytest.raises(ValueError):
            MitigationPolicy(kind="bogus", weights={})


class TestOptimalPolicy:
    def test_composes_game_and_mapping(self):
        theta = {"a": 1.5, "b": 3.5}
        flows = {"a": 0.5, "b": 0.5}
        policy = optimal_policy(["a", "b"], theta, flows)
        assert policy.kind == "optimal"
        assert policy.weights["a"] == pytest.approx(1.0)
        assert policy.weights["b"] == pytest.approx(0.5)


class TestControllerInteraction:
    def junction(self):
        diagram = FundamentalDiagramParams(free_speed=35.0, jam_density=0.16)
        lanes = tuple(
            Lane(id=d, length=70.0, diagram=diagram, saturation_flow=0.5)
            for d in ("N", "S", "E", "W")
        )
        phases = (
            SignalPhase(id="NS", served_lanes=("N", "S")),
            SignalPhase(id="EW", served_lanes=("E", "W")),
        )
        return (Junction(id="J", approach_lanes=lanes, phase_table=phases),)

    def signals(self):
        return {"J": SignalState(junction="J", active_phase="NS", phase_elapsed=10.0)}

    def test_filtering_changes_decision_only_by_reordering(self):
        cfg = SimConfig()
        # phantom-inflated EW beats NS raw; discounting EW restores NS
        raw = obs({"N": 6.0, "S": 2.0, "E": 9.0, "W": 3.0})
        unmitigated = adaptive_decide(self.junction(), self.signals(), raw, cfg)
        assert unmitigated == {"J": "EW"}
        policy = MitigationPolicy(
            kind="optimal", weights={"N": 1.0, "S": 1.0, "E": 0.5, "W": 0.5}
        )
        filtered = filter_perception(raw, policy)
        mitigated = adaptive_decide(self.junction(), self.signals(), filtered, cfg)
        assert mitigated == {"J": "NS"}

    def test_identical_weights_keep_argmax(self):
        cfg = SimConfig(switch_penalty=0.0)
        raw = obs({"N": 6.0, "S": 2.0, "E": 5.0, "W": 2.0})
        policy = fair_policy(["N", "S", "E", "W"])
        a = adaptive_decide(self.junction(), self.signals(), raw, cfg)
        b = adaptive_decide(
            self.junction(), self.signals(), filter_perception(raw, policy), cfg
        )
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
        clean = replace(report, seed=2, mitigation_fallback=False)
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
