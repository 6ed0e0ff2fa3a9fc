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

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_a_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, command):
        scn = tmp_path / "bad.scn"
        scn.write_bytes(b"\xff\xfe[scenario]\n")
        assert main([command, str(scn)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"{scn}: " in captured.out + captured.err

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

    def test_empty_directory_usage_error(self, tmp_path, capsys):
        assert main(["suite", str(tmp_path)]) == EXIT_USAGE
        assert "no scenario files found" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "row, message",
        [
            ("b,0.4", "lanes.csv:3: expected 3 fields, got 2"),
            ("b,0.5,0.1,9", "lanes.csv:3: expected 3 fields, got 4"),
            ("a,3.0,0.5", "lanes.csv:3: lane 'a' is already given on line 2"),
            ("b,x,0.5", "lanes.csv:3: lane b: theta_vps must be a number, got 'x'"),
            ("b,0.5,", "lanes.csv:3: lane b: f_vps must be a number, got ''"),
        ],
        ids=["short", "long", "repeated-lane", "theta-not-a-number", "empty-flow"],
    )
    def test_malformed_row_rejected(self, tmp_path, capsys, row, message):
        csv_file = tmp_path / "lanes.csv"
        csv_file.write_text(f"lane,theta_vps,f_vps\na,2.0,0.5\n{row}\nc,1.0,0.5\n")
        assert main(["solve-game", str(csv_file)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


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

    def test_empty_directory_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == EXIT_USAGE
        assert "no scenario files found" in capsys.readouterr().err

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
    # the simulation's knobs, each refused by its SimConfig
    ("[scenario]\ndt = 0\n", "dt must be > 0"),
    ("[control]\nflow_window = 0\n", "flow_window must be > 0"),
    ("[control]\ndecision_interval = -1\n", "decision_interval must be >= 0"),
    ("[attack]\nreplan_interval = -300\n", "replan_interval"),
    ("[attack]\nbudget = 0\n", "budget"),
    ("[attack]\nbudget = -2\n", "budget"),
    ("[mitigation]\ncadence = 0\n", "cadence"),
    # a key README lists as removed fails as any unknown key does
    ("[mitigation]\nimpact_floor = 0.5\n", "unknown key 'impact_floor' in [mitigation]"),
    ("[control]\nmin_green = 0\n", "min_green"),
    ("[control]\nmax_green = 4\n", "max_green"),
    ("[diagram]\nlane_length = -5\n", "length"),
    ("[diagram]\nlane_length = 0\n", "length"),
    ("[diagram]\nlane_length = inf\n", "lane_length must be finite"),
    ("[inflows]\nleft = nan\n", "inflows_vph must be finite"),
    ("[diagram]\nsaturation_flow = 0\n", "saturation_flow"),
    ("[diagram]\njam_density = 0\n", "jam_density"),
    ("[diagram]\njam_density = 1e308\n", "free_speed * jam_density must be finite"),
    ("[diagram]\njam_density = 2\nlane_length = 1e308\n",
     "jam_density * length must be finite"),
    # FULL's [scenario] section is opened again and gives horizon a second time
    ("[scenario]\nhorizon = 30\n",
     ":12: key 'horizon' in [scenario] is already given on line 4"),
    # FULL's fixture is not the grid, which alone reads [grid]
    ("[grid]\nrows = 5\ncols = 7\nlanes_per_direction = 3\n",
     ":12: key 'rows' in [grid] needs fixture = grid"),
    # keys that FULL's adaptive controller never reads
    ("[control]\nmax_gap = 2\n", ":12: key 'max_gap' in [control] needs controller = gap_actuated"),
    ("[control]\nfixed_splits = 10, 10\n",
     ":12: key 'fixed_splits' in [control] needs controller = fixed"),
]
# Cases for a key FULL already sets change FULL's line, since a key may be
# given only once: (FULL's line, the line it becomes, extra, message)
ADAPTIVE, FIXED = "controller = adaptive", "controller = fixed"
REPLACING = [
    ("horizon = 300", "horizon = inf", "", "horizon must be finite"),
    ("fixture = three_junction_reference", "fixture = grid", "[grid]\nrows = 0\n", "rows"),
    ("fixture = three_junction_reference", "fixture = grid",
     "[grid]\nlanes_per_direction = 0\n", "jam_density"),
    ("seeds = 1", "seeds = 1,2,1", "", "seed 1 is given twice"),
    # keys that an arm without the attack or filter they belong to never reads
    ("kind = game_optimal", "kind = none", "",
     ":8: key 'start' in [attack] needs kind = greedy_critical_phase or game_optimal"),
    ("kind = game_optimal", "kind = greedy_critical_phase", "[attack]\nsingle_direction = true\n",
     ":12: key 'single_direction' in [attack] needs kind = game_optimal"),
    ("kind = optimal", "kind = fair", "[mitigation]\ncadence = 17\n",
     ":12: key 'cadence' in [mitigation] needs kind = optimal"),
    # [control] keys that the arm's controller never reads
    (ADAPTIVE, FIXED, "[control]\nmin_green = 6\n",
     ":12: key 'min_green' in [control] needs controller = gap_actuated or adaptive"),
    (ADAPTIVE, FIXED, "[control]\nmax_green = 50\n",
     ":12: key 'max_green' in [control] needs controller = gap_actuated or adaptive"),
    (ADAPTIVE, FIXED, "[control]\ndecision_interval = 10\n",
     ":12: key 'decision_interval' in [control] needs controller = adaptive"),
    (ADAPTIVE, "controller = gap_actuated", "[control]\nswitch_penalty = 3\n",
     ":12: key 'switch_penalty' in [control] needs controller = adaptive"),
    (ADAPTIVE, FIXED, "[control]\nmax_gap = 4\n",
     ":12: key 'max_gap' in [control] needs controller = gap_actuated"),
    (ADAPTIVE, "controller = gap_actuated", "[control]\nfixed_splits = 20, 20\n",
     ":12: key 'fixed_splits' in [control] needs controller = fixed"),
    # the bounds on fixed_splits, under the one controller that reads it
    (ADAPTIVE, FIXED, "[control]\nfixed_splits =\n",
     "fixed_splits must list one or more durations > 0"),
    (ADAPTIVE, FIXED, "[control]\nfixed_splits = 0, 20\n",
     "fixed_splits must list one or more durations > 0"),
    (ADAPTIVE, FIXED, "[control]\nfixed_splits = 40, inf\n", "fixed_splits must be finite"),
    # J1:NS's 2.5 s slot holds 2 or 3 steps, and the 3 s yellow before it 3
    (ADAPTIVE, FIXED, "[control]\nfixed_splits = 7, 2.5\n", "fixed_splits starve phase J1:NS"),
    # each junction has 2 phases, so a third split would never be read
    (ADAPTIVE, FIXED, "[control]\nfixed_splits = 40,20,30,99\n",
     "fixed_splits lists 4 durations, but no junction has more than 2 phases"),
]
CASES = [(FULL + extra, message) for extra, message in INVALID] + [
    (FULL.replace(old, new) + extra, message) for old, new, extra, message in REPLACING
]
CASE_IDS = [  # each case is named by the last line it writes
    lines.splitlines()[-1].replace(" ", "")
    for lines in [extra for extra, _ in INVALID]
    + [new + "\n" + extra for _, new, extra, _ in REPLACING]
]


class TestInvalidValues:
    def test_full_scenario_is_valid(self, tmp_path, capsys):
        assert main(["validate", str(write(tmp_path, FULL, "full.scn"))]) == EXIT_OK

    @pytest.mark.parametrize(
        "controller, keys",
        [
            ("fixed", "fixed_splits = 30, 10"),
            ("gap_actuated", "min_green = 6\nmax_green = 50\nmax_gap = 2"),
            ("adaptive", "min_green = 6\nmax_green = 50\ndecision_interval = 10\n"
                         "switch_penalty = 3"),
        ],
    )
    def test_each_controller_takes_the_control_keys_it_reads(
        self, tmp_path, capsys, controller, keys
    ):
        text = FULL.replace(ADAPTIVE, f"controller = {controller}")
        text += f"[control]\nyellow = 3\nflow_window = 60\n{keys}\n"
        assert main(["validate", str(write(tmp_path, text, "ok.scn"))]) == EXIT_OK

    @pytest.mark.parametrize("text, message", CASES, ids=CASE_IDS)
    def test_validate_exits_2(self, tmp_path, capsys, text, message):
        scn = write(tmp_path, text, "bad.scn")
        assert main(["validate", str(scn)]) == EXIT_USAGE
        out = capsys.readouterr().out
        assert "INVALID" in out and message in out

    @pytest.mark.parametrize("text, message", CASES, ids=CASE_IDS)
    def test_run_exits_2_before_running(self, tmp_path, capsys, text, message):
        scn = write(tmp_path, text, "bad.scn")
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

    @pytest.mark.parametrize("command", ["run", "suite"])
    def test_repeated_seed_flag_is_usage_error(self, tmp_path, capsys, command):
        scn = write(tmp_path, MINIMAL, "tiny.scn")
        with pytest.raises(SystemExit) as err:
            main([command, str(scn), "--seeds", "1,2,1"])
        assert err.value.code == EXIT_USAGE
        assert "--seeds: seed 1 is given twice" in capsys.readouterr().err

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
