"""Command-line front end: run scenarios, solve lane games, lint configs.

`run` and `suite` hand every scenario file to `scenario.run_suite`, write
its `reports.csv` and `summary.txt` under `--out-dir`, and print one of
them; `solve-game` solves the lane game of a lane,theta_vps,f_vps CSV; and
`validate` parses each scenario file, which checks its config and network.
Exit codes: 0 on success, 1 when any scenario arm failed to execute,
2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

from .game import GameSolverError, build_payoff_matrix, solve_game
from .scenario import ScenarioError, parse_scenario, run_suite, seed_list

EXIT_OK = 0
EXIT_ARM_FAILURE = 1
EXIT_USAGE = 2


def _worker_count(text: str) -> int:
    """A process count of at least 1; argparse exits 2 on anything else."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"needs a whole number >= 1, got {text!r}")
    return n


def _seeds(text: str) -> tuple[int, ...]:
    """`seed_list`; argparse exits 2 with its message on a bad or repeated seed."""
    try:
        return seed_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sybil-atsc",
        description="Traffic-signal lab: phantom-vehicle attacks and game-based filtering",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seeds", type=_seeds, default=None,
                       help="comma-separated seed list (default: scenario file, "
                            "then 1..10)")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="write reports.csv and summary.txt here")
        p.add_argument("--parallelism", type=_worker_count, default=1,
                       help="worker processes, at most one per job (default: 1)")
        p.add_argument("--format", choices=("csv", "table"), default="table")

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", type=Path)
    add_common(p_run)

    p_suite = sub.add_parser("suite", help="run every scenario in files/directories")
    p_suite.add_argument("paths", type=Path, nargs="+")
    add_common(p_suite)

    p_solve = sub.add_parser(
        "solve-game", help="solve the lane game from a theta/flow CSV"
    )
    p_solve.add_argument("csv_file", type=Path,
                         help="CSV with header lane,theta_vps,f_vps")
    p_solve.add_argument("--format", choices=("csv", "table"), default="table")

    p_val = sub.add_parser("validate", help="lint scenario files and their networks")
    p_val.add_argument("scenarios", type=Path, nargs="+")
    return parser


def _collect_scenarios(paths) -> list[Path]:
    """Each path, or a directory's `*.scn` files; ScenarioError if none."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.scn")))
        else:
            files.append(path)
    if not files:
        raise ScenarioError("no scenario files found")
    return files


def _emit_reports(csv_text: str, summary: str, args) -> None:
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "reports.csv").write_text(csv_text)
        (args.out_dir / "summary.txt").write_text(summary)
    if args.format == "csv":
        sys.stdout.write(csv_text)
    else:
        sys.stdout.write(summary)


def _cmd_run_or_suite(args, paths) -> int:
    try:
        configs = [parse_scenario(f) for f in _collect_scenarios(paths)]
        _reports, csv_text, summary = run_suite(
            configs, parallelism=args.parallelism, seeds=args.seeds
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # an arm blew up mid-run
        print(f"arm failure: {exc}", file=sys.stderr)
        return EXIT_ARM_FAILURE
    _emit_reports(csv_text, summary, args)
    return EXIT_OK


_COLUMNS = ("lane", "theta_vps", "f_vps")


def _finite_float(row: dict, key: str, where: str) -> float:
    try:
        value = float(row[key])
    except ValueError:
        raise ValueError(
            f"{where}: lane {row['lane']}: {key} must be a number, got {row[key]!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: lane {row['lane']}: {key} must be finite, got {row[key]}")
    return value


def _read_lanes(path: Path) -> tuple[list[str], list[float], list[float]]:
    """Lane ids, thetas and flows from a lane,theta_vps,f_vps CSV.

    The columns may come in any order; every row must have all three fields
    and a lane id not given before.  Errors are ValueErrors naming file:line.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or sorted(header) != sorted(_COLUMNS):
            raise ValueError(f"{path}: header must be {','.join(_COLUMNS)}")
        first_line: dict[str, int] = {}
        theta, flows = [], []
        for fields in reader:
            if not fields:
                continue  # a blank line
            where = f"{path}:{reader.line_num}"
            if len(fields) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(fields)}")
            row = dict(zip(header, fields))
            lane = row["lane"]
            if lane in first_line:
                raise ValueError(
                    f"{where}: lane {lane!r} is already given on line {first_line[lane]}"
                )
            first_line[lane] = reader.line_num
            theta.append(_finite_float(row, "theta_vps", where))
            flows.append(_finite_float(row, "f_vps", where))
    return list(first_line), theta, flows


def _cmd_solve_game(args) -> int:
    try:
        lanes, theta, flows = _read_lanes(args.csv_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not lanes:
        print("error: no lanes in input", file=sys.stderr)
        return EXIT_USAGE
    try:
        solution = solve_game(build_payoff_matrix(theta, flows))
    except (GameSolverError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_ARM_FAILURE
    if args.format == "csv":
        sys.stdout.write("lane,alpha,beta\n")
        for lane, a, b in zip(lanes, solution.attacker.probs, solution.defender.probs):
            sys.stdout.write(f"{lane},{a:.6f},{b:.6f}\n")
        sys.stdout.write(f"value,{solution.value:.6f},{solution.value:.6f}\n")
    else:
        width = max(len(l) for l in lanes + ["lane"])
        print(f"{'lane':<{width}}  {'alpha':>8}  {'beta':>8}")
        for lane, a, b in zip(lanes, solution.attacker.probs, solution.defender.probs):
            print(f"{lane:<{width}}  {a:>8.4f}  {b:>8.4f}")
        print(f"game value: {solution.value:.6f}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        paths = _collect_scenarios(args.scenarios)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    status = EXIT_OK
    for path in paths:
        try:
            config = parse_scenario(path)  # checks the config and its network
        except ScenarioError as exc:
            print(f"{path}: INVALID: {exc}")
            status = EXIT_USAGE
            continue
        lanes = len(config.network.lanes())
        print(f"{path}: ok ({config.name}, {lanes} lanes)")
    return status


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run_or_suite(args, [args.scenario])
    if args.command == "suite":
        return _cmd_run_or_suite(args, args.paths)
    if args.command == "solve-game":
        return _cmd_solve_game(args)
    if args.command == "validate":
        return _cmd_validate(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
