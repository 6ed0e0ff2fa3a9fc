import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sybil_atsc import scenario
from sybil_atsc.attack import ATTACK_KINDS
from sybil_atsc.controllers import CONTROLLER_KINDS, build_controller
from sybil_atsc.metrics import reports_to_csv
from sybil_atsc.mitigation import MITIGATION_KINDS
from sybil_atsc.scenario import (
    DEFAULT_SEEDS,
    FIXTURES,
    ScenarioConfig,
    ScenarioError,
    default_seeds,
    parse_scenario,
    run_scenario,
    run_single,
    run_suite,
)
from sybil_atsc.sim import POISSON_LAM_MAX, World, run


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
        head = "[scenario]\nfixture = grid\ncontroller = fixed\n"
        config = parse_scenario(write(tmp_path, head + f"[{section}]\n{key} = 7.5\n"))
        assert getattr(config, field) == 7.5
        config = parse_scenario(write(tmp_path, head + f"[{section}]\n{key} = AUTO\n"))
        assert getattr(config, field) is None

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SYBIL_ATSC_SEED", "41,42")
        assert default_seeds() == (41, 42)
        path = write(
            tmp_path, "[scenario]\nfixture = grid\ncontroller = fixed\n"
        )
        assert parse_scenario(path).seeds == (41, 42)
        # explicit seeds in the file win over the environment
        path2 = write(
            tmp_path,
            "[scenario]\nfixture = grid\ncontroller = fixed\nseeds = 7\n",
            name="explicit.scn",
        )
        assert parse_scenario(path2).seeds == (7,)


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
        reports = run_scenario(small_config(controller="fixed", name="base"))
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
        reports = run_scenario(config)
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

            def map(self, fn, jobs):
                return map(fn, jobs)

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
        a = reports_to_csv(run_scenario(config))
        b = reports_to_csv(run_scenario(config))
        assert a == b

    def test_empty_suite_rejected(self):
        with pytest.raises(ScenarioError):
            run_suite([])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ScenarioError, match="no seeds"):
            run_suite([small_config()], seeds=[])

    def test_seed_override_argument(self):
        reports = run_scenario(small_config(), seeds=(9,))
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
            small_config(fixture="roundabout").validate()
        with pytest.raises(ScenarioError):
            small_config(name="has,comma").validate()
        with pytest.raises(ScenarioError):
            small_config(seeds=()).validate()
        with pytest.raises(ScenarioError):
            replace(small_config(attack="game_optimal"), duty_on=0.0).validate()


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
        lane = config.build_network().junctions[0].approach_lanes[3]
        assert lane.id == "J0_0:W" and lane.inflow_rate * config.dt == POISSON_LAM_MAX
        config.validate()
        report = run_single(config, 1)
        # nearly all of 60 steps' draws wait off the lane as a count
        assert report.trips_completed > 0
        assert report.censored > 59 * POISSON_LAM_MAX

    def test_demand_above_the_bound_is_rejected_naming_the_lane(self):
        config = self.one_junction(math.nextafter(self.AT_BOUND_VPH, math.inf))
        with pytest.raises(ScenarioError, match="demand on lane J0_0:W"):
            config.validate()


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


# Values validate() may accept, kept small: at most a 2x2 grid, 120 s, and
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
    "saturation_flow": _num(0.01, 0.06),  # below the smallest capacity
    "min_green": _num(0.5, 10.0),
    "max_green": _num(10.0, 60.0),
    "yellow": _num(0.0, 4.0),
    "max_gap": _num(0.0, 5.0),
    "decision_interval": _num(0.0, 20.0),
    "switch_penalty": _num(-5.0, 5.0),
    "fixed_splits": st.lists(_num(0.5, 60.0), min_size=1, max_size=3).map(tuple),
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
    "impact_floor": _num(0.0, 0.5),
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
def scenario_configs(draw):
    values = {name: draw(strategy) for name, strategy in _IN_RANGE.items()}
    for name in draw(st.lists(st.sampled_from(sorted(_EDGES)), max_size=2, unique=True)):
        values[name] = draw(st.sampled_from(_EDGES[name]))
    return ScenarioConfig(name="prop", seeds=(1,), **values)


@settings(max_examples=300)
@given(scenario_configs())
# demand that passes every other check, which a Poisson draw cannot take
@example(ScenarioConfig(name="prop", seeds=(1,), horizon=60.0, inflows_vph={"left": 1e308}))
def test_validate_accepts_exactly_the_configs_that_run(config):
    """What validate() accepts runs; the rest fails with ScenarioError up front."""
    try:
        config.validate()
    except ScenarioError:
        with pytest.raises(ScenarioError):
            run_single(config, 1)
        return
    run_single(config, 1)  # any exception fails the property
