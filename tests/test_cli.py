import pytest

from sybil_atsc.cli import EXIT_OK, EXIT_USAGE, main

MINIMAL = """[scenario]
name = tiny
fixture = three_junction_reference
horizon = 400
controller = fixed
seeds = 1,2
"""


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_run_writes_reports(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        out = tmp_path / "out"
        code = main(["run", str(scn), "--out-dir", str(out), "--format", "csv"])
        assert code == EXIT_OK
        csv_text = (out / "reports.csv").read_text()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "scenario,seed,mean_wait_s,mean_time_loss_s,trips,censored,policy,attack"
        assert len(lines) == 3  # two seeds
        assert capsys.readouterr().out == csv_text

    def test_flag_seeds_override(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        code = main(["run", str(scn), "--seeds", "5", "--format", "csv"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tiny,5," in out and "tiny,1," not in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL + "mystery = 1\n", "bad.scn")
        assert main(["run", str(scn)]) == EXIT_USAGE
        assert "mystery" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.scn")]) == EXIT_USAGE

    def test_table_format_default(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        assert main(["run", str(scn)]) == EXIT_OK
        assert "scenario" in capsys.readouterr().out

    def test_huge_budget_game_attack_runs(self, tmp_path, capsys):
        # a free speed of 1e308 makes the auto budget about 4e307, where the
        # planned rates' sum rounds a few ulps above the budget
        text = (
            "[scenario]\nname = huge\nfixture = grid\nhorizon = 120\n"
            "controller = adaptive\nseeds = 1\n[grid]\nrows = 2\ncols = 2\n"
            "[diagram]\nfree_speed = 1e308\n[attack]\nkind = game_optimal\nstart = 0\n"
        )
        scn = write(tmp_path, text, "huge.scn")
        assert main(["run", str(scn), "--format", "csv"]) == EXIT_OK
        assert "huge,1," in capsys.readouterr().out

    @pytest.mark.parametrize("diagram", ["", "[diagram]\nfree_speed = 1e308\n"])
    def test_demand_beyond_a_poisson_draw_exits_2(self, tmp_path, capsys, diagram):
        # 1e308 veh/h is 2.8e304 veh per 1 s step, above what numpy can draw;
        # a free speed of 1e308 gives the lane a capacity above even that
        scn = write(tmp_path, MINIMAL + diagram + "[inflows]\nleft = 1e308\n", "huge.scn")
        assert main(["validate", str(scn)]) == EXIT_USAGE
        assert main(["run", str(scn)]) == EXIT_USAGE
        assert "demand on lane J1:W" in capsys.readouterr().err


class TestSuite:
    def test_directory_expansion_and_parallelism(self, tmp_path, capsys):
        write(tmp_path, MINIMAL, "a.scn")
        write(tmp_path, MINIMAL.replace("name = tiny", "name = other"), "b.scn")
        out1 = tmp_path / "o1"
        out8 = tmp_path / "o8"
        assert main(["suite", str(tmp_path), "--out-dir", str(out1),
                     "--parallelism", "1"]) == EXIT_OK
        assert main(["suite", str(tmp_path), "--out-dir", str(out8),
                     "--parallelism", "8"]) == EXIT_OK
        assert (out1 / "reports.csv").read_bytes() == (out8 / "reports.csv").read_bytes()

    def test_empty_directory_usage_error(self, tmp_path):
        assert main(["suite", str(tmp_path)]) == EXIT_USAGE


class TestSolveGame:
    def test_solves_theta_flow_csv(self, tmp_path, capsys):
        csv_file = tmp_path / "lanes.csv"
        csv_file.write_text("lane,theta_vps,f_vps\nns,1.5,0.5\new,3.5,0.5\n")
        assert main(["solve-game", str(csv_file), "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ns,0.750000,0.750000" in out
        assert "value,0.750000" in out

    def test_table_output(self, tmp_path, capsys):
        csv_file = tmp_path / "lanes.csv"
        csv_file.write_text("lane,theta_vps,f_vps\na,1.0,0.0\nb,1.0,0.0\n")
        assert main(["solve-game", str(csv_file)]) == EXIT_OK
        assert "game value: 0.500000" in capsys.readouterr().out

    def test_wrong_header_rejected(self, tmp_path, capsys):
        csv_file = tmp_path / "lanes.csv"
        csv_file.write_text("lane,theta,flow\na,1.0,0.0\n")
        assert main(["solve-game", str(csv_file)]) == EXIT_USAGE
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["theta_vps", "f_vps"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, column, value):
        row = {"theta_vps": "1.0", "f_vps": "0.5", column: value}
        csv_file = tmp_path / "lanes.csv"
        csv_file.write_text(
            f"lane,theta_vps,f_vps\na,2.0,0.5\nb,{row['theta_vps']},{row['f_vps']}\n"
        )
        assert main(["solve-game", str(csv_file)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"lane b: {column} must be finite, got {value}" in err


class TestValidate:
    def test_good_scenario_ok(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        assert main(["validate", str(scn)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_invalid_scenario_flagged(self, tmp_path, capsys):
        scn = write(
            tmp_path,
            MINIMAL + "\n[diagram]\nsaturation_flow = 9.0\n",  # above capacity
            "sat.scn",
        )
        assert main(["validate", str(scn)]) == EXIT_USAGE
        assert "saturation exceeds capacity" in capsys.readouterr().out

    def test_shipped_scenarios_validate(self, scenario_dir, capsys):
        assert main(["validate", str(scenario_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(": ok") == 6


# Every section active, so each check below is reached.
FULL = """[scenario]
fixture = three_junction_reference
controller = adaptive
horizon = 300
seeds = 1
[attack]
kind = game_optimal
start = 100
[mitigation]
kind = optimal
"""

INVALID = [
    ("[control]\nflow_window = 0\n", "flow_window"),
    ("[control]\ndecision_interval = -1\n", "decision_interval"),
    ("[control]\nfixed_splits =\n", "fixed_splits"),
    ("[attack]\nreplan_interval = -300\n", "replan_interval"),
    ("[attack]\nbudget = 0\n", "budget"),
    ("[attack]\nbudget = -2\n", "budget"),
    ("[mitigation]\ncadence = 0\n", "cadence"),
    ("[mitigation]\nimpact_floor = -0.1\n", "impact_floor"),
    ("[control]\nmin_green = 0\n", "min_green"),
    ("[control]\nmax_green = 4\n", "max_green"),
    ("[diagram]\nlane_length = -5\n", "length"),
    ("[diagram]\nlane_length = 0\n", "length"),
    ("[diagram]\nlane_length = inf\n", "lane_length must be finite"),
    ("[scenario]\nhorizon = inf\n", "horizon must be finite"),
    ("[inflows]\nleft = nan\n", "inflows_vph must be finite"),
    ("[control]\nfixed_splits = 40, inf\n", "fixed_splits must be finite"),
    ("[diagram]\nsaturation_flow = 0\n", "saturation_flow"),
    ("[diagram]\njam_density = 0\n", "jam_density"),
    ("[diagram]\njam_density = 1e308\n", "free_speed * jam_density must be finite"),
    ("[diagram]\njam_density = 2\nlane_length = 1e308\n",
     "jam_density * length must be finite"),
    ("[scenario]\nfixture = grid\n[grid]\nrows = 0\n", "rows"),
    ("[scenario]\nfixture = grid\n[grid]\nlanes_per_direction = 0\n", "jam_density"),
]
INVALID_IDS = [extra.splitlines()[-1].replace(" ", "") for extra, _ in INVALID]


class TestInvalidValues:
    def test_full_scenario_is_valid(self, tmp_path, capsys):
        assert main(["validate", str(write(tmp_path, FULL, "full.scn"))]) == EXIT_OK

    @pytest.mark.parametrize("extra, message", INVALID, ids=INVALID_IDS)
    def test_validate_exits_2(self, tmp_path, capsys, extra, message):
        scn = write(tmp_path, FULL + extra, "bad.scn")
        assert main(["validate", str(scn)]) == EXIT_USAGE
        out = capsys.readouterr().out
        assert "INVALID" in out and message in out

    @pytest.mark.parametrize("extra, message", INVALID, ids=INVALID_IDS)
    def test_run_exits_2_before_running(self, tmp_path, capsys, extra, message):
        scn = write(tmp_path, FULL + extra, "bad.scn")
        assert main(["run", str(scn)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestUsage:
    def test_bad_seed_flag_is_usage_error(self, tmp_path, capsys):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        with pytest.raises(SystemExit) as err:
            main(["run", str(scn), "--seeds", "1,x"])
        assert err.value.code == EXIT_USAGE
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command, value", [("run", ","), ("suite", "")])
    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys, command, value):
        write(tmp_path, MINIMAL, "tiny.scn")
        assert main([command, str(tmp_path), "--seeds", value]) == EXIT_USAGE
        assert "no seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_parallelism_below_one_is_usage_error(self, tmp_path, capsys, value):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        with pytest.raises(SystemExit) as err:
            main(["suite", str(scn), "--parallelism", value])
        assert err.value.code == EXIT_USAGE
        assert "--parallelism" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SYBIL_ATSC_SEED", "3")
        scn = write(tmp_path, MINIMAL.replace("seeds = 1,2\n", ""), "env.scn")
        assert main(["run", str(scn), "--format", "csv"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tiny,3," in out
