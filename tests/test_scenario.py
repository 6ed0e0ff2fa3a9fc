import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from sybil_atsc import scenario
from sybil_atsc.attack import ATTACK_KINDS, AttackPlan
from sybil_atsc.cli import EXIT_OK, main
from sybil_atsc.controllers import CONTROLLER_KINDS, build_controller
from sybil_atsc.mitigation import MITIGATION_KINDS
from sybil_atsc.scenario import (
    DEFAULT_SEEDS,
    FIXTURES,
    ScenarioConfig,
    ScenarioError,
    parse_scenario,
    run_single,
    run_suite,
    seed_list,
)
from sybil_atsc.networks import grid, three_junction_reference
from sybil_atsc.sim import POISSON_LAM_MAX, SimConfig, World, run
from sybil_atsc.traffic_model import max_flow
from test_golden import run_with_trips


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParser:
    def test_minimal_grid_file_gets_standard_defaults(self, tmp_path):
        path = write(tmp_path, "[scenario]\nfixture = grid\ncontroller = adaptive\n")
        config = parse_scenario(path)
        assert config.grid_rows == 10 and config.grid_cols == 10
        assert config.lanes_per_direction == 2
        assert config.horizon == 5000.0
        assert config.max_gap == 3.0
        assert config.free_speed == 35.0
        net = config.build_network()
        inflows = {
            "J0_0:N": 20.0, "J9_0:S": 40.0, "J0_0:W": 40.0, "J0_9:E": 50.0,
        }
        for lane_id, vph in inflows.items():
            assert net.lane(lane_id).inflow_rate == pytest.approx(vph / 3600.0)

    def test_minimal_reference_file(self, tmp_path):
        path = write(
            tmp_path, "[scenario]\nfixture = three_junction_reference\ncontroller = fixed\n"
        )
        config = parse_scenario(path)
        assert config.name == "case"
        assert config.seeds == DEFAULT_SEEDS
        assert len(config.build_network().lanes()) == 12

    def test_repeated_key_rejected_across_a_reopened_section(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nhorizon = 10\nhorizon = 20\n[scenario]\nhorizon = 30\n",
        )
        message = "case.scn:3: key 'horizon' in [scenario] is already given on line 2"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(path)
        path = write(tmp_path, "[scenario]\nhorizon = 10\n[control]\nyellow = 2\n"
                     "[scenario]\nhorizon = 30\n")
        message = "case.scn:6: key 'horizon' in [scenario] is already given on line 2"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(path)

    def test_reopened_section_with_new_keys_is_legal(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nhorizon = 10\n[control]\nyellow = 2\n"
            "[scenario]\ncontroller = fixed\n[control]\nfixed_splits = 30, 10\n",
        )
        config = parse_scenario(path)
        assert (config.horizon, config.controller) == (10.0, "fixed")
        assert (config.yellow, config.fixed_splits) == (2.0, (30.0, 10.0))

    @pytest.mark.parametrize(
        "fixture, build",
        [("three_junction_reference", three_junction_reference), ("grid", grid)],
    )
    def test_fixture_alone_gets_the_fixture_and_sim_defaults(self, tmp_path, fixture, build):
        # ScenarioConfig inherits the diagram and timing defaults from
        # FixtureParams and the control knobs from SimConfig
        config = parse_scenario(write(tmp_path, f"[scenario]\nfixture = {fixture}\n"))
        assert config.network == build()
        assert config.sim_config() == SimConfig()

    @pytest.mark.parametrize("fixture", ["", "fixture = three_junction_reference\n"])
    def test_grid_keys_need_the_grid_fixture(self, tmp_path, fixture):
        # the fixture is read from anywhere in the file, before [grid] or after
        path = write(tmp_path, f"[grid]\ncols = 7\n[scenario]\n{fixture}")
        message = "case.scn:2: key 'cols' in [grid] needs fixture = grid"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            parse_scenario(path)
        path = write(tmp_path, "[grid]\ncols = 7\n[scenario]\nfixture = grid\n")
        assert parse_scenario(path).grid_cols == 7

    def test_repeated_seed_rejected(self, tmp_path):
        with pytest.raises(ScenarioError, match="seed 3 is given twice"):
            seed_list("3,4,3")
        path = write(tmp_path, "[scenario]\nseeds = 1,2,2\n")
        with pytest.raises(ScenarioError, match="seed 2 is given twice"):
            parse_scenario(path)

    def test_negative_horizon_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nfixture = grid\ncontroller = fixed\nhorizon = -10\n",
        )
        with pytest.raises(ScenarioError, match="horizon"):
            parse_scenario(path)

    def test_unknown_key_is_an_error(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nfixture = grid\ncontroller = fixed\nturbo = yes\n",
        )
        with pytest.raises(ScenarioError, match="turbo"):
            parse_scenario(path)

    def test_unknown_section_is_an_error(self, tmp_path):
        path = write(tmp_path, "[wormholes]\nx = 1\n")
        with pytest.raises(ScenarioError, match="wormholes"):
            parse_scenario(path)

    def test_error_carries_line_number(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nfixture = grid\ncontroller = fixed\nbogus = 1\n",
        )
        with pytest.raises(ScenarioError, match=":4:"):
            parse_scenario(path)

    def test_a_file_that_is_not_utf8_is_an_error_naming_it(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"\xff\xfe[scenario]\n")
        with pytest.raises(ScenarioError, match=re.escape(f"{path}: ")):
            parse_scenario(path)

    def test_key_outside_section(self, tmp_path):
        path = write(tmp_path, "fixture = grid\n")
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario(path)

    def test_inflows_converted_from_vph(self, tmp_path):
        path = write(
            tmp_path,
            "[scenario]\nfixture = three_junction_reference\ncontroller = fixed\n"
            "[inflows]\nleft = 720\n",
        )
        config = parse_scenario(path)
        net = config.build_network()
        assert net.lane("J1:W").inflow_rate == pytest.approx(0.2)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "# suite arm\n\n[scenario]\nfixture = grid  # inline comment\n"
            "controller = fixed\n",
        )
        assert parse_scenario(path).fixture == "grid"

    def test_bad_controller_listed(self, tmp_path):
        path = write(tmp_path, "[scenario]\nfixture = grid\ncontroller = ppo\n")
        with pytest.raises(ScenarioError, match="controller"):
            parse_scenario(path)

    @pytest.mark.parametrize(
        "section, key, field",
        [
            ("attack", "budget", "attack_budget"),
            ("attack", "duration", "attack_duration"),
            ("diagram", "lane_length", "lane_length"),
        ],
    )
    def test_auto_parses_to_none(self, tmp_path, section, key, field):
        # an attack kind, since [attack] keys are read only when an attack runs
        head = ("[scenario]\nfixture = grid\ncontroller = fixed\n"
                "[attack]\nkind = greedy_critical_phase\n")
        config = parse_scenario(write(tmp_path, head + f"[{section}]\n{key} = 7.5\n"))
        assert getattr(config, field) == 7.5
        config = parse_scenario(write(tmp_path, head + f"[{section}]\n{key} = AUTO\n"))
        assert getattr(config, field) is None

    def test_environment_does_not_reach_the_config(self, scenario_dir, monkeypatch):
        # a file and a seed fix every output byte, so no variable may
        # change what a parse gives; the variable once set the seed list
        bench_dir = REPO_ROOT / "perfbench" / "scenarios"
        files = [*scenario_dir.glob("*.scn"), *bench_dir.glob("*.scn")]
        assert len(files) == 8
        plain = [parse_scenario(path) for path in files]
        monkeypatch.setenv("SYBIL_ATSC_SEED", "3")
        assert [parse_scenario(path) for path in files] == plain


def small_config(**overrides):
    base = dict(
        name="t",
        fixture="three_junction_reference",
        horizon=600.0,
        controller="adaptive",
        seeds=(1, 2),
        free_speed=14.0,
        jam_density=0.157,
        saturation_flow=0.54,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunners:
    def test_baseline_arm_descriptors(self):
        reports = run_suite([small_config(controller="fixed", name="base")])[0]
        assert len(reports) == 2
        for r in reports:
            assert r.policy == "none" and r.attack == "none"
            assert r.controller == "fixed"
            assert r.trips_completed > 0

    def test_attack_arm_flagged(self):
        config = small_config(
            attack="game_optimal", attack_start=100.0, single_direction=True,
            attack_budget=6.0, duty_on=24.0, duty_off=6.0, name="atk",
        )
        reports = run_suite([config])[0]
        assert all(r.attack == "game_optimal" for r in reports)

    def test_row_count_is_arms_times_seeds(self):
        configs = [small_config(name=f"arm{i}") for i in range(5)]
        reports, csv_text, _ = run_suite(configs, parallelism=1)
        assert len(reports) == 5 * 2
        assert len(csv_text.strip().split("\n")) == 1 + 10

    def test_suite_parallelism_determinism(self):
        configs = [
            small_config(name="a"),
            small_config(name="b", controller="fixed"),
        ]
        _, csv_seq, _ = run_suite(configs, parallelism=1)
        _, csv_par, _ = run_suite(configs, parallelism=4)
        assert csv_seq == csv_par

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch):
        # the pool starts all its workers at once, so a worker count above
        # the job count would start idle processes; record the count asked
        # for without starting any
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(
            scenario.concurrent.futures, "ProcessPoolExecutor", RecordingPool
        )
        configs = [small_config(name="a"), small_config(name="b")]  # 4 jobs
        _, csv_wide, _ = run_suite(configs, parallelism=5000)
        _, csv_three, _ = run_suite(configs, parallelism=3)
        assert sizes == [4, 3]
        _, csv_seq, _ = run_suite(configs, parallelism=1)
        run_suite(configs[:1], parallelism=5000, seeds=[1])  # one job: no pool
        assert sizes == [4, 3]
        assert csv_wide == csv_three == csv_seq

    def test_repeat_runs_byte_identical(self):
        config = small_config(name="again")
        _, a, _ = run_suite([config])
        _, b, _ = run_suite([config])
        assert a == b

    def test_empty_suite_rejected(self):
        with pytest.raises(ScenarioError):
            run_suite([])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ScenarioError, match="no seeds"):
            run_suite([small_config()], seeds=[])

    def test_repeated_seed_rejected(self):
        # a copy would be one more row, counted by summarize as another seed
        with pytest.raises(ScenarioError, match="seed 1 is given twice"):
            run_suite([small_config()], seeds=(1, 1))
        with pytest.raises(ScenarioError, match="seed 1 is given twice"):
            run_suite([small_config(seeds=(1, 2, 1))])
        with pytest.raises(ScenarioError, match="seed 2 is given twice"):
            small_config(seeds=(2, 2))

    def test_seed_override_argument(self):
        reports = run_suite([small_config()], seeds=(9,))[0]
        assert [r.seed for r in reports] == [9]

    def test_weights_logged_for_optimal_arm(self):
        config = small_config(
            name="mit", attack="game_optimal", attack_start=100.0,
            attack_budget=6.0, duty_on=24.0, duty_off=6.0,
            single_direction=True, mitigation="optimal",
        )
        report = run_single(config, 1)
        assert report.weights_log
        t0, kind, weights = report.weights_log[0]
        assert kind == "optimal" and len(weights) == 12
        assert report.mitigation_fallback is False

    def test_flow_summary_is_entry_flow_at_horizon(self):
        # 90 s is not a whole minute, so a per-minute sample would miss it
        config = small_config(name="flows", horizon=90.0)
        report = run_single(config, 1)
        network = config.build_network()
        sim_cfg = config.sim_config()
        world = World(
            network,
            build_controller(config.controller, network, sim_cfg),
            seed=1,
            config=sim_cfg,
        )
        run(world, config.horizon)
        assert list(report.flow_summary) == [ln.id for ln in network.lanes()]
        assert report.flow_summary == world.measured_flows()

    def test_validation_catches_bad_combinations(self):
        with pytest.raises(ScenarioError):
            small_config(fixture="roundabout")
        with pytest.raises(ScenarioError):
            small_config(name="has,comma")
        with pytest.raises(ScenarioError):
            small_config(seeds=())
        with pytest.raises(ScenarioError):
            replace(small_config(attack="game_optimal"), duty_on=0.0)

    def test_each_arm_is_built_once(self, tmp_path, monkeypatch):
        # constructing a config builds and lints its network, and everything
        # after that, a pickled copy in a pool worker too, runs on that one
        builds = []
        build = scenario.three_junction_reference

        def counting(**params):
            builds.append(params)
            return build(**params)

        monkeypatch.setattr(scenario, "three_junction_reference", counting)
        path = write(tmp_path, "[scenario]\nhorizon = 30\n")
        assert main(["validate", str(path)]) == EXIT_OK
        assert len(builds) == 1
        config = parse_scenario(path)
        run_suite([config])  # the 10 default seeds
        assert len(builds) == 2
        run_suite([config], seeds=(3, 4))
        assert len(builds) == 3
        assert pickle.loads(pickle.dumps(config)).network == config.network
        assert len(builds) == 3


    # (duration, budget) given, and auto: until the horizon and 0.3 times
    # the lanes' summed capacity
    @pytest.mark.parametrize("kind", ATTACK_KINDS[1:])
    @pytest.mark.parametrize(
        "duration, budget, window, replans",
        [(200.0, 6.0, (200.0, 6.0), 4), (None, None, (500.0, None), 9)],
        ids=["given", "auto"],
    )
    def test_each_replan_fills_in_the_rates_of_the_one_window_plan(
        self, monkeypatch, kind, duration, budget, window, replans
    ):
        """The tap reads the run's window plan, with no rates, before the
        attack starts; each replan (at 100, 160, ... s) inside the window
        gets the live plan and returns it with only its rates changed, every
        injection after it reads that plan, and no replan runs once the
        window ends."""
        config = small_config(
            attack=kind, attack_start=100.0, attack_duration=duration,
            attack_budget=budget, duty_on=24.0, duty_off=6.0, attack_replan=60.0,
        )
        capacity = sum(max_flow(ln.diagram) for ln in config.network.lanes())
        expected = AttackPlan(
            per_lane_rate={}, start_time=100.0, duration=window[0], duty_on=24.0,
            duty_off=6.0, total_budget=window[1] or 0.3 * capacity,
        )
        # (plan given, None) per injection, (plan given, plan returned) per
        # replan, in call order
        calls, times = [], []
        real_inject = scenario.inject

        def spy_inject(plan, t, dt):
            calls.append((plan, None))
            times.append(t)
            return real_inject(plan, t, dt)

        name = "plan_optimal_attack" if kind == "game_optimal" else "plan_greedy_attack"
        real_plan = getattr(scenario, name)

        def spy_plan(*args, **kwargs):
            calls.append((args[-1], real_plan(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(scenario, "inject", spy_inject)
        monkeypatch.setattr(scenario, name, spy_plan)
        run_single(config, 1)
        live = calls[0][0]
        assert times[0] < 100.0 and live == expected
        assert sum(out is not None for _, out in calls) == replans
        for given, out in calls:
            assert given is live
            if out is not None:
                assert replace(out, per_lane_rate={}) == expected and not out.is_empty
                live = out

    def test_the_filter_reads_the_live_policy(self, monkeypatch):
        """The first recompute, at 0 s, comes before any filter call, and
        each filter call reads the latest recompute's policy; the weights
        log lists those policies in order."""
        config = small_config(
            attack="game_optimal", attack_start=100.0, attack_budget=6.0,
            duty_on=24.0, duty_off=6.0, mitigation="optimal", mitigation_cadence=150.0,
        )
        # (policy given, None) per filter call, (None, policy) per recompute
        calls = []
        real_filter, real_policy = scenario.filter_perception, scenario.optimal_policy

        def spy_filter(obs, policy):
            calls.append((policy, None))
            return real_filter(obs, policy)

        def spy_policy(*args, **kwargs):
            calls.append((None, real_policy(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(scenario, "filter_perception", spy_filter)
        monkeypatch.setattr(scenario, "optimal_policy", spy_policy)
        report = run_single(config, 1)
        policies = [out for _, out in calls if out is not None]
        assert len(policies) == 4 and calls[0][0] is None
        assert [(kind, weights) for _, kind, weights in report.weights_log] == [
            (policy.kind, policy.weights) for policy in policies
        ]
        live = None
        for given, out in calls:
            if out is None:
                assert given is live
            else:
                live = out
        assert sum(given is policies[-1] for given, _ in calls) > 0


class TestAttackWindow:
    """A config resolves its attack window once, when it is made."""

    def test_none_without_an_attack(self):
        assert small_config().attack_window is None

    @pytest.mark.parametrize(
        "duration, budget", [(200.0, 6.0), (None, None)], ids=["given", "auto"]
    )
    def test_the_window_is_the_resolved_plan(self, duration, budget):
        config = small_config(
            attack="greedy_critical_phase", attack_start=100.0, attack_duration=duration,
            attack_budget=budget, duty_on=24.0, duty_off=6.0,
        )
        capacity = 0.0
        for ln in config.network.lanes():  # summed in lane order
            capacity += max_flow(ln.diagram)
        assert config.attack_window == AttackPlan(
            per_lane_rate={}, start_time=100.0,
            duration=500.0 if duration is None else duration, duty_on=24.0,
            duty_off=6.0, total_budget=0.3 * capacity if budget is None else budget,
        )

    def test_a_new_horizon_resolves_the_auto_duration_again(self):
        config = small_config(attack="game_optimal", attack_start=100.0)
        assert config.attack_window.duration == 500.0
        assert replace(config, horizon=250.0).attack_window.duration == 150.0
        assert replace(config, horizon=50.0).attack_window.duration == 0.0
        given = replace(config, attack_duration=70.0)
        assert replace(given, horizon=250.0).attack_window.duration == 70.0

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("attack_start", -1.0, "attack start must be >= 0"),
            ("duty_on", 0.0, "duty_on must be > 0"),
            ("duty_off", -1.0, "duty_off must be >= 0"),
            ("attack_duration", -1.0, "duration must be >= 0"),
            ("attack_budget", 0.0, "budget must be > 0"),
            ("attack_budget", -2.0, "budget must be > 0"),
        ],
    )
    def test_the_plan_checks_its_bounds(self, field, value, message):
        with pytest.raises(ScenarioError, match=re.escape(message)):
            small_config(attack="game_optimal", **{field: value})
        # an arm with no attack never reads them
        assert getattr(small_config(**{field: value}), field) == value

    def test_the_window_reaches_a_pool_worker(self):
        config = small_config(
            attack="game_optimal", attack_start=100.0, duty_on=24.0, duty_off=6.0,
        )
        assert pickle.loads(pickle.dumps(config)).attack_window == config.attack_window
        assert run_suite([config], parallelism=2)[1] == run_suite([config])[1]


class TestShippedScenarios:
    def test_all_files_parse_and_validate(self, scenario_dir):
        from sybil_atsc.traffic_model import validate_network

        files = sorted(scenario_dir.glob("*.scn"))
        assert len(files) == 6
        for path in files:
            config = parse_scenario(path)
            assert validate_network(config.build_network()) == []
            assert config.seeds == DEFAULT_SEEDS

    def test_five_arm_suite_yields_fifty_rows(self, scenario_dir):
        arms = [
            "baseline_fixed.scn",
            "adaptive_clean.scn",
            "attack_optimal.scn",
            "attack_fair_mitigation.scn",
            "attack_optimal_mitigation.scn",
        ]
        configs = [
            replace(parse_scenario(scenario_dir / name), horizon=300.0)
            for name in arms
        ]
        reports, csv_text, _ = run_suite(configs, parallelism=4)
        assert len(reports) == 50  # 5 arms x 10 default seeds
        assert len(csv_text.strip().split("\n")) == 51


class TestGridFixture:
    def test_small_grid_runs(self):
        config = ScenarioConfig(
            name="grid3", fixture="grid", grid_rows=3, grid_cols=3,
            horizon=400.0, controller="gap_actuated", seeds=(1,),
        )
        report = run_single(config, 1)
        assert report.trips_completed > 0
        assert len(config.build_network().lanes()) == 36


class TestDemandBound:
    """A lane's arrivals in one step are one Poisson draw, which numpy bounds."""

    AT_BOUND_VPH = POISSON_LAM_MAX * 3600.0  # the bound per 1 s step, exactly

    @staticmethod
    def one_junction(left_vph):
        return ScenarioConfig(
            name="huge", fixture="grid", grid_rows=1, grid_cols=1, horizon=60.0,
            controller="fixed", seeds=(1,), inflows_vph={"left": left_vph},
        )

    def test_the_bound_is_numpys(self):
        rng = np.random.default_rng(0)
        assert rng.poisson(POISSON_LAM_MAX) > 0
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(math.nextafter(POISSON_LAM_MAX, math.inf))

    def test_demand_at_the_bound_runs(self):
        config = self.one_junction(self.AT_BOUND_VPH)
        lane = config.network.junctions[0].approach_lanes[3]
        assert lane.id == "J0_0:W" and lane.inflow_rate * config.dt == POISSON_LAM_MAX
        report = run_single(config, 1)
        # nearly all of 60 steps' draws wait off the lane as a count
        assert report.trips_completed > 0
        assert report.censored > 59 * POISSON_LAM_MAX

    def test_demand_above_the_bound_is_rejected_naming_the_lane(self):
        with pytest.raises(ScenarioError, match="demand on lane J0_0:W"):
            self.one_junction(math.nextafter(self.AT_BOUND_VPH, math.inf))


class TestStalledGreens:
    """A phase whose longest green earns a served lane under one vehicle of
    credit never discharges it, since entering yellow drops the credit; such
    a config is rejected.  On the reference fixture the longest greens are
    45 s (adaptive: a decision every 5 s from min green 5 s reaches max
    green 45 s exactly), 45 s (gap-actuated) and 17 s (fixed: the 20 s NS
    split less the 3 s yellow before it)."""

    LONGEST = {"adaptive": 45.0, "gap_actuated": 45.0, "fixed": 17.0}
    PHASE = {"adaptive": "J1:EW", "gap_actuated": "J1:EW", "fixed": "J1:NS"}

    @pytest.mark.parametrize("controller", CONTROLLER_KINDS)
    def test_just_below_the_bound_is_rejected_naming_the_phase(self, controller):
        green = self.LONGEST[controller]
        with pytest.raises(ScenarioError, match=(
            f"phase {self.PHASE[controller]} never discharges lane .* its longest green "
            f"under {controller} control is {green:g} s, .* is under 1 vehicle"
        )):
            ScenarioConfig(controller=controller, saturation_flow=0.9999 / green)

    @pytest.mark.parametrize("controller", CONTROLLER_KINDS)
    def test_just_above_the_bound_constructs_and_discharges(self, controller):
        config = ScenarioConfig(
            controller=controller, saturation_flow=1.0001 / self.LONGEST[controller],
            horizon=1000.0, seeds=(1,),
        )
        assert run_single(config, 1).trips_completed > 0

    def test_the_found_config_is_rejected(self):
        # it ran 2000 s, completed no trip and left 1,292 vehicles censored
        with pytest.raises(ScenarioError, match="never discharges"):
            ScenarioConfig(fixture="three_junction_reference", controller="adaptive",
                           horizon=2000.0, saturation_flow=0.016)

    # Each constructed once and ran 3,000 s at seed 1 with J1:NS never green
    # after the first yellow and J1's N and S queues at jam capacity: 793
    # trips completed and 1,198 censored, 935 and 1,056, 1,183 and 808.
    @pytest.mark.parametrize("timing", [
        # no slot holds more than 2 steps of 1 s, and each yellow takes 3
        dict(fixed_splits=(1.45, 0.63)),
        # NS's slot holds 2 or 3 steps, and the 3 s yellow takes 3
        dict(fixed_splits=(7.0, 2.5)),
        # NS's slot holds 2 steps in every cycle, and the 2 s yellow takes both
        dict(fixed_splits=(2.5, 2.5), yellow=2.0, saturation_flow=1.0),
    ])
    def test_a_schedule_that_starves_a_phase_is_rejected_naming_it(self, timing):
        with pytest.raises(ScenarioError, match="fixed_splits starve phase .*J1:NS"):
            ScenarioConfig(controller="fixed", horizon=3000.0, seeds=(1,), **timing)


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


# Values a config may take, kept small: at most a 2x2 grid, 120 s, and
# game solves no more often than every 30 s.
_IN_RANGE = {
    "fixture": st.sampled_from(FIXTURES),
    "controller": st.sampled_from(CONTROLLER_KINDS),
    "horizon": _num(1.0, 120.0),
    "dt": st.sampled_from([0.5, 1.0, 2.0]),
    "grid_rows": st.integers(1, 2),
    "grid_cols": st.integers(1, 2),
    "lanes_per_direction": st.integers(1, 3),
    "inflows_vph": st.none() | st.fixed_dictionaries(
        {side: _num(0.0, 3000.0) for side in ("top", "bottom", "left", "right")}
    ),
    "free_speed": _num(5.0, 40.0),
    "jam_density": _num(0.05, 0.3),
    "lane_length": st.none() | _num(5.0, 300.0),
    # a green of 5-10 s earns a vehicle of credit at these flows; the few
    # draws over their lanes' capacity (0.0625 veh/s at the least) fail
    "saturation_flow": _num(0.1, 0.2),
    "min_green": _num(0.5, 10.0),
    "max_green": _num(10.0, 60.0),
    "yellow": _num(0.0, 4.0),
    "max_gap": _num(0.0, 5.0),
    "decision_interval": _num(0.0, 20.0),
    "switch_penalty": _num(-5.0, 5.0),
    # both fixtures have 2 phases per junction, and a third split is rejected
    "fixed_splits": st.lists(_num(0.5, 60.0), min_size=1, max_size=2).map(tuple),
    "flow_window": _num(0.5, 400.0),
    "attack": st.sampled_from(ATTACK_KINDS),
    "attack_budget": st.none() | _num(0.01, 10.0),
    "attack_start": _num(0.0, 100.0),
    "attack_duration": st.none() | _num(0.0, 200.0),
    "duty_on": _num(0.5, 30.0),
    "duty_off": _num(0.0, 10.0),
    "attack_replan": _num(30.0, 200.0),
    "single_direction": st.booleans(),
    "mitigation": st.sampled_from(MITIGATION_KINDS),
    "mitigation_cadence": _num(30.0, 200.0),
}
# Boundary and out-of-range values of the types a parsed file gives; every
# float field also gets -1.0, 0.0, inf and nan.
_EDGES = {
    "fixture": ["roundabout"],
    "controller": ["ppo"],
    "attack": ["bogus"],
    "mitigation": ["bogus"],
    "grid_rows": [-1, 0],
    "grid_cols": [-1, 0],
    "lanes_per_direction": [-1, 0],
    "inflows_vph": [
        {"left": -1.0}, {"left": math.inf}, {"top": math.nan}, {"left": 1e308}
    ],
    "fixed_splits": [(), (0.0,), (40.0, -1.0), (math.inf,), (40.0, math.nan)],
}
_EDGES.update(
    {
        name: [-1.0, 0.0, math.inf, math.nan]
        for name in _IN_RANGE.keys() - _EDGES.keys() - {"single_direction"}
    }
)
for name in ("free_speed", "jam_density", "lane_length"):  # capacities overflow
    _EDGES[name].append(1e308)


@st.composite
def scenario_fields(draw, edges=True, **strategies):
    """A config's fields, each from `strategies` or else from _IN_RANGE,
    and, with `edges`, up to two of them then set to an edge value."""
    values = {
        name: draw(strategies.get(name, strategy)) for name, strategy in _IN_RANGE.items()
    }
    chosen = st.lists(st.sampled_from(sorted(_EDGES)), max_size=2 if edges else 0, unique=True)
    for name in draw(chosen):
        values[name] = draw(st.sampled_from(_EDGES[name]))
    return dict(name="prop", seeds=(1,), **values)


# Diagrams near the float minimum, as in test_a_game_on_tiny_capacities_runs:
# a lane's capacity v_f * k_j / 4 reaches 2.5e-321 veh/s, a subnormal, and
# every game the attacker or the filter solves is on impacts that small.  The
# network lint allows a saturation flow of capacity + 1e-12 veh/s at most,
# which earns a vehicle of credit only in a green of 1e12 s or more.
_TINY = {
    "free_speed": _num(1e-160, 1e-150),
    "jam_density": _num(1e-160, 1e-150),
    "saturation_flow": _num(1e-14, 1e-13),
    "max_green": _num(1e14, 1e15),
    "fixed_splits": st.lists(_num(1e14, 1e15), min_size=1, max_size=2).map(tuple),
}


@settings(max_examples=300)
@given(scenario_fields() | scenario_fields(**_TINY))
# demand that passes every other check, which a Poisson draw cannot take
@example({"name": "prop", "seeds": (1,), "horizon": 60.0, "inflows_vph": {"left": 1e308}})
def test_a_config_that_constructs_runs(values):
    _constructs_exactly_what_runs(lambda: ScenarioConfig(**values))


def _constructs_exactly_what_runs(make):
    """What constructs runs; what does not raises ScenarioError, never
    another exception."""
    try:
        config = make()
    except ScenarioError:
        return
    run_single(config, 1)  # any exception fails the property


def test_a_game_on_tiny_capacities_runs():
    # every lane's capacity, and so every impact at t = 0, is about 2.5e-321
    # veh/s, a subnormal float whose 1/u overflows; the game is solved on
    # the impacts scaled by their largest power of two.  A lane discharging
    # 1e-13 veh/s earns a vehicle only in a green of 1e13 s, so the config
    # constructs only with a max green past that
    config = ScenarioConfig(
        name="tiny", seeds=(1,), free_speed=1e-160, jam_density=1e-160,
        saturation_flow=1e-13, controller="gap_actuated", max_green=1e14,
        attack="game_optimal", attack_start=0.0, horizon=400.0,
        mitigation="optimal", mitigation_cadence=100.0,
    )
    report = run_single(config, 1)
    assert len(report.weights_log) == 4


# Every arm runs within the horizon: the attack replans at 0 and the filter
# recomputes at 0 and 30 s.
_EDGE_BASE = ScenarioConfig(
    name="edge", seeds=(1,), fixture="grid", grid_rows=2, grid_cols=2,
    lanes_per_direction=2, horizon=60.0, attack="game_optimal", attack_start=0.0,
    mitigation="optimal", mitigation_cadence=30.0,
)
_EDGE_CASES = [(name, edge) for name in sorted(_EDGES) for edge in _EDGES[name]]


@pytest.mark.parametrize(
    "name, edge", _EDGE_CASES, ids=[f"{name}={edge!r}" for name, edge in _EDGE_CASES]
)
def test_each_edge_is_rejected_up_front_or_runs(name, edge):
    """The property above on each out-of-range value, applied to one base."""
    _constructs_exactly_what_runs(lambda: replace(_EDGE_BASE, **{name: edge}))


# Metamorphic relations: two configs that must give the same trips, run at
# seed 1 and compared record for record.  The drawn configs are small (see
# _IN_RANGE), and 40 examples each keep them near 2.5 s of tier-1 together.
# A relation between two empty trip lists shows nothing, so these draws run
# 120-300 s and discharge at 0.05-0.5 veh/s.  Every base is drawn in range,
# with a lane capacity of at least 10 * 0.2 / 4 = 0.5 veh/s, the largest
# saturation flow drawn, and greens of at least 20 s: a max green of 20 s
# or more, and splits of 24 s or more, less a yellow of at most 4 s even
# rounded up to whole steps.  So every green earns a lane at least
# 0.05 * 20 = 1 vehicle of credit, and every base constructs: a change that
# rejects one fails the relation instead of passing it unseen.
_ENDING_TRIPS = {
    "horizon": _num(120.0, 300.0),
    "saturation_flow": _num(0.05, 0.5),
    "free_speed": _num(10.0, 40.0),
    "jam_density": _num(0.2, 0.3),
    "max_green": _num(20.0, 60.0),
    "fixed_splits": st.lists(_num(24.0, 60.0), min_size=1, max_size=2).map(tuple),
}


def _bases():
    return scenario_fields(edges=False, **_ENDING_TRIPS)


def _trips(config):
    return run_with_trips(config, 1)[1]


@settings(max_examples=40)
@given(_bases())
def test_an_optimal_filter_that_recomputes_only_at_t0_filters_nothing(values):
    """With a cadence past the horizon the filter recomputes only at t = 0,
    where every measured flow is 0.  Both fixtures give every lane one
    diagram, so every impact is the same capacity, the defender's mix is
    uniform and every trust weight exactly 1.0: the optimal filter only
    copies the snapshot, and the trips are the `none` filter's."""
    once = ScenarioConfig(**{**values, "mitigation": "optimal",
                             "mitigation_cadence": values["horizon"] + 1.0})
    report, trips = run_with_trips(once, 1)
    [(t, kind, weights)] = report.weights_log
    assert (t, kind) == (0.0, "optimal")
    assert all(w == 1.0 for w in weights.values())
    assert trips == _trips(replace(once, mitigation="none"))


@settings(max_examples=40)
@given(_bases(), st.sampled_from(ATTACK_KINDS[1:]), st.floats(0.0, 100.0))
def test_an_attack_from_the_horizon_on_changes_nothing(values, kind, later):
    """An attack that starts at or after the horizon never plans or injects:
    the trips are the clean arm's."""
    attacked = ScenarioConfig(
        **{**values, "attack": kind, "attack_start": values["horizon"] + later}
    )
    assert _trips(attacked) == _trips(replace(attacked, attack="none"))


@settings(max_examples=40)
@given(_bases(), st.sampled_from(["adaptive", "fixed"]),
       st.integers(-10, 10))
def test_fair_filtering_is_a_doubled_switch_penalty(values, controller, halves):
    """The fair filter halves every perceived count, so a rival's pressure
    test S/2 - p > A/2 + 1e-12 is S - 2p > A + 2e-12.  Counts are whole, so
    with 2p whole no difference falls between the two tolerances, and the
    trips are those of no filter and twice the penalty.  Gap-actuated
    control rounds its headways, so the relation is not drawn for it."""
    fair = ScenarioConfig(**{**values, "controller": controller, "mitigation": "fair",
                             "switch_penalty": halves / 2})
    assert _trips(fair) == _trips(replace(fair, mitigation="none", switch_penalty=float(halves)))


@settings(max_examples=40)
@given(_bases(), st.floats(0.0, 60.0))
def test_a_longer_run_keeps_every_trip_that_ended_by_the_horizon(values, more):
    """Nothing in a run reads its own future: run on past the horizon, it
    gives the same record for every trip that ended by then.  An `auto`
    attack window ends at the horizon, so the two runs' windows differ."""
    config = ScenarioConfig(**values)
    horizon = config.horizon

    def ended(trips):
        return [trip for trip in trips if trip.depart_time <= horizon]

    assert ended(_trips(config)) == ended(_trips(replace(config, horizon=horizon + more)))
