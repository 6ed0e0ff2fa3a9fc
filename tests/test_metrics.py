import random

import pytest

from sybil_atsc.metrics import (
    CSV_HEADER,
    ScenarioReport,
    aggregate,
    improvement,
    mean_time_loss,
    mean_trip_waiting_time,
    reports_to_csv,
    summarize,
    time_loss,
    trip_records,
)
from sybil_atsc.sim import VehicleRecord


def trip(wait=0.0, spawn=0.0, depart=100.0, free_flow=60.0, vid="v"):
    return VehicleRecord(
        id=vid,
        spawn_time=spawn,
        depart_time=depart,
        accumulated_wait=wait,
        free_flow_time=free_flow,
    )


class TestMeanTripWaitingTime:
    def test_arithmetic_mean(self):
        trips = [trip(wait=10.0), trip(wait=20.0), trip(wait=30.0)]
        assert mean_trip_waiting_time(trips) == pytest.approx(20.0)

    def test_single_zero_wait(self):
        assert mean_trip_waiting_time([trip(wait=0.0)]) == 0.0

    def test_empty_defined_as_zero(self):
        assert mean_trip_waiting_time([]) == 0.0

    def test_permutation_invariant(self):
        trips = [trip(wait=float(i), vid=f"v{i}") for i in range(20)]
        shuffled = trips[:]
        random.Random(4).shuffle(shuffled)
        assert mean_trip_waiting_time(trips) == mean_trip_waiting_time(shuffled)


class TestTimeLoss:
    def test_subtraction(self):
        assert time_loss(trip(spawn=0.0, depart=100.0, free_flow=60.0)) == 40.0

    def test_zero_when_at_free_flow(self):
        assert time_loss(trip(spawn=0.0, depart=60.0, free_flow=60.0)) == 0.0

    def test_floored_at_zero(self):
        assert time_loss(trip(spawn=0.0, depart=50.0, free_flow=60.0)) == 0.0

    def test_loss_at_least_wait_in_simulated_logs(self, scenario_dir):
        from sybil_atsc.scenario import parse_scenario
        from sybil_atsc.controllers import build_controller
        from sybil_atsc.sim import World, run

        config = parse_scenario(scenario_dir / "adaptive_clean.scn")
        net = config.build_network()
        world = World(
            net,
            build_controller("adaptive", net, config.sim_config()),
            seed=7,
            config=config.sim_config(),
        )
        result = run(world, 1200.0)
        trips = trip_records(result.trips)
        assert trips
        for t in trips:
            assert time_loss(t) >= t.accumulated_wait - 1e-9


def report(name="arm", seed=1, wait=10.0, loss=20.0, **kw):
    return ScenarioReport(
        scenario=name,
        seed=seed,
        mean_trip_waiting_time=wait,
        mean_time_loss=loss,
        trips_completed=kw.pop("trips", 100),
        censored=kw.pop("censored", 0),
        policy=kw.pop("policy", "none"),
        attack=kw.pop("attack", "none"),
        controller=kw.pop("controller", "adaptive"),
        weights_log=kw.pop("weights_log", ()),
    )


class TestImprovement:
    def test_headline_anchor(self):
        assert improvement(100.0, 51.1) == pytest.approx(48.9)

    def test_fair_anchor(self):
        assert improvement(100.0, 73.5) == pytest.approx(26.5)

    def test_equal_reports_zero(self):
        assert improvement(42.0, 42.0) == 0.0

    def test_zero_reference_not_applicable(self):
        assert improvement(0.0, 5.0) is None


class TestCompletedTrips:
    def test_converts_completed_vehicles_only(self):
        done = trip(vid="a", depart=50.0)
        censored = VehicleRecord(id="b", spawn_time=0.0)
        later = trip(vid="c", depart=20.0)
        trips = trip_records([done, censored, later])
        assert [t.id for t in trips] == ["a", "c"]
        assert trips[0] is done

    def test_invariants(self):
        with pytest.raises(ValueError, match="departs before spawning"):
            trip_records([trip(spawn=10.0, depart=5.0)])
        with pytest.raises(ValueError, match="negative wait"):
            trip_records([trip(wait=-1.0)])


class TestCsv:
    def test_schema_and_sorting(self):
        reports = [
            report(name="b", seed=2, wait=1.234567, loss=2.0),
            report(name="a", seed=1),
            report(name="b", seed=1),
        ]
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("a,1,")
        assert lines[2].startswith("b,1,")
        assert lines[3].startswith("b,2,1.234567,")

    def test_round_trip_stability(self):
        reports = [report(name="x", seed=s, wait=s * 1.5) for s in (3, 1, 2)]
        assert reports_to_csv(reports) == reports_to_csv(list(reversed(reports)))


class TestAggregate:
    def test_mean_and_sample_sd(self):
        reports = [report(seed=s, wait=w) for s, w in [(1, 10.0), (2, 20.0), (3, 30.0)]]
        stats = aggregate(reports)["arm"]
        assert stats["mean_wait"] == pytest.approx(20.0)
        assert stats["sd_wait"] == pytest.approx(10.0)  # sample, n-1

    def test_censored_counted_separately(self):
        reports = [report(seed=1, censored=7, trips=93)]
        stats = aggregate(reports)["arm"]
        assert stats["censored"] == 7
        assert stats["trips"] == 93


class TestSummarize:
    def test_ordering_check_present(self):
        reports = []
        arms = [
            ("baseline", "fixed", "none", "none", 50.0),
            ("clean", "adaptive", "none", "none", 20.0),
            ("attacked", "adaptive", "game_optimal", "none", 45.0),
            ("fair", "adaptive", "game_optimal", "fair", 35.0),
            ("optimal", "adaptive", "game_optimal", "optimal", 25.0),
        ]
        for name, controller, attack, policy, loss in arms:
            for seed in (1, 2):
                reports.append(
                    report(name=name, seed=seed, wait=loss - 2, loss=loss,
                           controller=controller, attack=attack, policy=policy)
                )
        text = summarize(reports)
        assert "ordering optimal <= fair <= unmitigated: OK" in text
        assert "adaptive vs fixed baseline" in text

    def test_mitigated_arms_compared_to_matching_attack(self):
        # a weaker greedy arm must not become the reference for the
        # game-attack mitigation comparison
        reports = []
        arms = [
            ("greedy", "greedy_critical_phase", "none", 30.0),
            ("attacked", "game_optimal", "none", 45.0),
            ("fair", "game_optimal", "fair", 35.0),
            ("optimal", "game_optimal", "optimal", 25.0),
        ]
        for name, attack, policy, loss in arms:
            for seed in (1, 2):
                reports.append(
                    report(name=name, seed=seed, wait=loss - 2, loss=loss,
                           attack=attack, policy=policy)
                )
        text = summarize(reports)
        assert "ordering optimal <= fair <= unmitigated: OK" in text
        # 45 -> 35 against the game-attack reference is 22.2%, not a
        # comparison against the greedy arm's 30
        assert "fair filtering improves time loss by 22.2%" in text

    @staticmethod
    def checks(arms):
        """The check lines of the summary of two seeds of each (name,
        controller, attack, policy, loss) arm; each wait is loss - 2."""
        reports = [
            report(name=name, seed=seed, wait=loss - 2, loss=loss,
                   controller=controller, attack=attack, policy=policy)
            for name, controller, attack, policy, loss in arms
            for seed in (1, 2)
        ]
        return summarize(reports).split("\n\n", 1)[1].splitlines()

    def test_a_fair_arm_alone_names_the_reference_attack(self):
        # with no optimal arm, the unmitigated arm is the one under the fair
        # arm's attack, not the first attacked arm by name
        assert self.checks([
            ("a_greedy", "adaptive", "greedy_critical_phase", "none", 30.0),
            ("b_game", "adaptive", "game_optimal", "none", 45.0),
            ("clean", "adaptive", "none", "none", 20.0),
            ("fair", "adaptive", "game_optimal", "fair", 35.0),
        ]) == [
            "attack impact on adaptive control: +25.00 s mean wait",
            "fair filtering improves time loss by 22.2%",
        ]

    def test_without_a_filtered_arm_the_first_adaptive_attacked_arm_is_unmitigated(self):
        assert self.checks([
            ("0_fixed_game", "fixed", "game_optimal", "none", 90.0),
            ("a_greedy", "adaptive", "greedy_critical_phase", "none", 30.0),
            ("b_game", "adaptive", "game_optimal", "none", 50.0),
            ("baseline", "fixed", "none", "none", 40.0),
            ("clean", "adaptive", "none", "none", 20.0),
        ]) == [
            "adaptive vs fixed baseline: +20.00 s mean wait (better)",
            "attack impact on adaptive control: +10.00 s mean wait",
        ]

    def test_a_fallback_is_one_line_per_arm_with_its_seed_count(self):
        fell_back = ((0.0, "optimal", {"l0": 0.5}), (300.0, "none", {"l0": 1.0}))
        reports = [
            report(name="optimal", seed=1, policy="optimal", attack="game_optimal",
                   weights_log=fell_back),
            report(name="optimal", seed=2, policy="optimal", attack="game_optimal",
                   weights_log=fell_back[:1]),
            report(name="optimal", seed=3, policy="optimal", attack="game_optimal",
                   weights_log=fell_back[::-1]),
        ]
        assert summarize(reports).split("\n\n", 1)[1] == (
            "mitigation fell back to no filtering: optimal (2 of 3 seeds)\n"
        )
