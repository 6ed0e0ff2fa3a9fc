"""Scenario files, single runs and suite execution.

A scenario is a flat `key = value` text file with `[section]` headers.
Parsing is strict -- an unknown section or key is an error, not a warning --
so a typo cannot silently fall back to a default.  A config and a seed fix
every output byte of a run.

`ScenarioConfig` inherits `SimConfig` and `FixtureParams`, so dt and the
control knobs are declared and bounded once, in `sim`, and the diagram,
demand and timing keywords that both fixtures take once, in `networks`;
`sim_config()` projects a scenario onto the first set, and
`build_network()` forwards the second.  A config checks itself when it is
constructed or `replace()`d and raises `ScenarioError` on a bad value, so
a config that exists runs.  One check rejects a phase that can never
discharge: entering yellow drops a lane's discharge credit, so a lane
whose saturation flow times its phase's longest green
(`controllers.longest_greens`) is under one vehicle never leaves its
queue.  A config keeps the network it built and linted as `network`, and
every run of the arm, in a pool worker too, uses that network.

`run_suite` is the one runner, for one arm or many.  It runs every (arm,
seed) job, in a process pool when given more than one worker but never
with more workers than jobs, and sorts the reports by (scenario, seed), so
its CSV and summary are byte-identical at any parallelism.  A seeds
override `replace()`s each arm's seeds, so an empty or repeated override
is rejected by the same check as a file's `seeds`.  Under the optimal
filter a run recomputes the policy every cadence from t = 0 and logs each
policy's weights by lane id; a game solve that fails degrades that policy
to no filtering, logged as `none`.
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import metrics
from .attack import ATTACK_KINDS, AttackPlan, inject, plan_greedy_attack, plan_optimal_attack
from .controllers import CONTROLLER_KINDS, FixedSchedule, build_controller, longest_greens
from .game import GameSolverError
from .metrics import ScenarioReport, mean_time_loss, mean_trip_waiting_time, trip_records
from .mitigation import (
    MITIGATION_KINDS,
    fair_policy,
    filter_perception,
    none_policy,
    optimal_policy,
)
from .networks import FixtureParams, grid, three_junction_reference
from .sim import CREDIT_TOL, TIME_TOL, SimConfig, World, network_problems, run
from .traffic_model import Network, max_flow

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "parse_scenario",
    "run_suite",
    "seed_list",
    "DEFAULT_SEEDS",
]

FIXTURES = ("three_junction_reference", "grid")
DEFAULT_SEEDS = tuple(range(1, 11))
# each field that names a kind, and the kinds it may name
_KINDS = (
    ("fixture", FIXTURES),
    ("controller", CONTROLLER_KINDS),
    ("attack", ATTACK_KINDS),
    ("mitigation", MITIGATION_KINDS),
)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class ScenarioConfig(SimConfig, FixtureParams):
    """One scenario arm: the simulation's knobs (dt and the control knobs,
    inherited from SimConfig), the fixture's diagram, demand and timing
    (inherited from FixtureParams), and its attack and mitigation.
    `__post_init__` keeps two attributes that are not fields: the `network`
    it built and linted, and `attack_window`, the arm's AttackPlan with no
    rates and the `auto` duration and budget resolved (None without an
    attack), which every run of the arm starts from."""

    name: str = "scenario"
    fixture: str = "three_junction_reference"
    horizon: float = 5000.0
    controller: str = "adaptive"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    # grid fixture geometry (defaults follow the standard grid setup)
    grid_rows: int = 10
    grid_cols: int = 10
    lanes_per_direction: int = 2
    lane_length: float | None = None  # None = fixture default
    # attack arm
    attack: str = "none"
    attack_budget: float | None = None  # None = 0.3 * total capacity
    attack_start: float = 900.0
    attack_duration: float | None = None  # None = until horizon
    duty_on: float = 2.0
    duty_off: float = 2.0
    attack_replan: float = 300.0
    single_direction: bool = False
    # mitigation arm
    mitigation: str = "none"
    mitigation_cadence: float = 300.0

    def __post_init__(self) -> None:
        """Reject every value the run would read and could not use, and keep the
        network and attack window built to check them.  Every float must be finite,
        and attack and mitigation values are checked under the arms that read them.
        The `SimConfig`, the splits' `FixedSchedule`, the network and the `AttackPlan`
        check the knobs, splits, geometry and window as they are built, so those
        bounds live with the types that hold them; the first to refuse stops the rest."""
        problems = [
            f"{name} must be one of {kinds}, got {getattr(self, name)!r}"
            for name, kinds in _KINDS if getattr(self, name) not in kinds
        ]
        for fld in fields(self):
            value = getattr(self, fld.name)
            if isinstance(value, dict):
                value = tuple(value.values())
            if not isinstance(value, tuple):
                value = (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in value):
                problems.append(f"{fld.name} must be finite")
        if self.horizon <= 0:
            problems.append(f"horizon must be > 0, got {self.horizon}")
        if not self.seeds:
            problems.append("no seeds given")
        try:
            _distinct(self.seeds)
        except ScenarioError as exc:
            problems.append(str(exc))
        if "," in self.name:
            problems.append("scenario name must not contain commas")
        if self.attack != "none" and self.attack_replan <= 0:
            problems.append("attack replan_interval must be > 0")
        if self.mitigation == "optimal" and self.mitigation_cadence <= 0:
            problems.append("mitigation cadence must be > 0")
        try:
            self.sim_config()
            FixedSchedule(self.fixed_splits)
            network = self.build_network()
            problems += network_problems(network, self.dt)
            if not problems:  # every value the timing rules read is valid
                problems += _stalled_phase(network, self)
            phases = max(len(junction.phase_table) for junction in network.junctions)
            if len(self.fixed_splits) > phases:
                problems.append(f"fixed_splits lists {len(self.fixed_splits)} durations, "
                                f"but no junction has more than {phases} phases")
            window = None if self.attack == "none" else AttackPlan(
                per_lane_rate={},
                start_time=self.attack_start,
                duration=(
                    self.attack_duration
                    if self.attack_duration is not None
                    else max(0.0, self.horizon - self.attack_start)
                ),
                duty_on=self.duty_on,
                duty_off=self.duty_off,
                total_budget=(
                    self.attack_budget
                    if self.attack_budget is not None
                    else 0.3 * sum(max_flow(ln.diagram) for ln in network.lanes())
                ),
            )
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ScenarioError("; ".join(problems))
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "attack_window", window)

    def build_network(self) -> Network:
        shared = {fld.name: getattr(self, fld.name) for fld in fields(FixtureParams)}
        if self.lane_length is not None:
            shared["lane_length"] = self.lane_length
        if self.fixture == "grid":
            return grid(
                self.grid_rows,
                self.grid_cols,
                lanes_per_direction=self.lanes_per_direction,
                **shared,
            )
        return three_junction_reference(**shared)

    def sim_config(self) -> SimConfig:
        """The simulation's knobs alone, as a plain SimConfig."""
        return SimConfig(**{fld.name: getattr(self, fld.name) for fld in fields(SimConfig)})


def _stalled_phase(network: Network, config: ScenarioConfig) -> list[str]:
    """The problem of the first phase whose longest green under the
    config's controller cannot earn a served lane one vehicle of discharge
    credit, or none.  A lane earns saturation_flow * dt of credit a green
    step, and entering yellow drops it, so such a phase never discharges
    that lane."""
    saturation = {lane.id: lane.saturation_flow for lane in network.lanes()}
    for junction in network.junctions:
        try:
            greens = longest_greens(config.controller, junction, config, config.horizon)
        except OverflowError:  # a bound or a count past 2**63 steps: not checked
            continue
        for phase in junction.phase_table:
            green = greens[phase.id]
            for lid in phase.served_lanes:
                if saturation[lid] * green < 1.0 - CREDIT_TOL:
                    return [
                        f"phase {phase.id} never discharges lane {lid}: its longest green "
                        f"under {config.controller} control is {green:g} s, and "
                        f"{saturation[lid]:g} veh/s x {green:g} s is under 1 vehicle"
                    ]
    return []


def _distinct(seeds) -> tuple[int, ...]:
    """The seeds as a tuple; raises ScenarioError on a repeated one, since
    a copy would be counted as one more independent run."""
    seeds = tuple(seeds)
    seen = set()
    for seed in seeds:
        if seed in seen:
            raise ScenarioError(f"seed {seed} is given twice")
        seen.add(seed)
    return seeds


def seed_list(text: str) -> tuple[int, ...]:
    """Comma-separated distinct seeds, e.g. "1,2,3"; raises ValueError on a
    bad or repeated one."""
    return _distinct(int(tok) for tok in text.split(",") if tok.strip())


# --------------------------------------------------------------------- parser

def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_splits(text: str) -> tuple[float, ...]:
    return tuple(float(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_auto(text: str) -> float | None:
    """A float, or None for `auto` (the config then derives the value)."""
    if text.lower() == "auto":
        return None
    return float(text)


# Which arms read a key: (what reading it needs, whether a config has that).
# A key given where it is never read is an error, so a file cannot set a
# knob to no effect.
_GRID = ("fixture = grid", lambda c: c.fixture == "grid")
_ATTACK = ("kind = greedy_critical_phase or game_optimal", lambda c: c.attack != "none")
_GAME_ATTACK = ("kind = game_optimal", lambda c: c.attack == "game_optimal")
_OPTIMAL = ("kind = optimal", lambda c: c.mitigation == "optimal")
_ACTUATED = ("controller = gap_actuated or adaptive", lambda c: c.controller != "fixed")
_GAP = ("controller = gap_actuated", lambda c: c.controller == "gap_actuated")
_ADAPTIVE = ("controller = adaptive", lambda c: c.controller == "adaptive")
_FIXED = ("controller = fixed", lambda c: c.controller == "fixed")

# The file format: (section, key) -> (config field, converter, the arms that
# read it or None for every arm).  A key in [inflows] is one direction of
# inflows_vph.
_KEYS = {
    ("scenario", "name"): ("name", str, None),
    ("scenario", "fixture"): ("fixture", str, None),
    ("scenario", "horizon"): ("horizon", float, None),
    ("scenario", "controller"): ("controller", str, None),
    ("scenario", "seeds"): ("seeds", seed_list, None),
    ("scenario", "dt"): ("dt", float, None),
    ("grid", "rows"): ("grid_rows", int, _GRID),
    ("grid", "cols"): ("grid_cols", int, _GRID),
    ("grid", "lanes_per_direction"): ("lanes_per_direction", int, _GRID),
    ("inflows", "top"): ("inflows_vph", float, None),
    ("inflows", "bottom"): ("inflows_vph", float, None),
    ("inflows", "left"): ("inflows_vph", float, None),
    ("inflows", "right"): ("inflows_vph", float, None),
    ("diagram", "free_speed"): ("free_speed", float, None),
    ("diagram", "jam_density"): ("jam_density", float, None),
    ("diagram", "lane_length"): ("lane_length", _parse_auto, None),
    ("diagram", "saturation_flow"): ("saturation_flow", float, None),
    ("control", "min_green"): ("min_green", float, _ACTUATED),
    ("control", "max_green"): ("max_green", float, _ACTUATED),
    ("control", "yellow"): ("yellow", float, None),
    ("control", "max_gap"): ("max_gap", float, _GAP),
    ("control", "decision_interval"): ("decision_interval", float, _ADAPTIVE),
    ("control", "switch_penalty"): ("switch_penalty", float, _ADAPTIVE),
    ("control", "fixed_splits"): ("fixed_splits", _parse_splits, _FIXED),
    ("control", "flow_window"): ("flow_window", float, None),
    ("attack", "kind"): ("attack", str, None),
    ("attack", "budget"): ("attack_budget", _parse_auto, _ATTACK),
    ("attack", "start"): ("attack_start", float, _ATTACK),
    ("attack", "duration"): ("attack_duration", _parse_auto, _ATTACK),
    ("attack", "duty_on"): ("duty_on", float, _ATTACK),
    ("attack", "duty_off"): ("duty_off", float, _ATTACK),
    ("attack", "replan_interval"): ("attack_replan", float, _ATTACK),
    ("attack", "single_direction"): ("single_direction", _parse_bool, _GAME_ATTACK),
    ("mitigation", "kind"): ("mitigation", str, None),
    ("mitigation", "cadence"): ("mitigation_cadence", float, _OPTIMAL),
}

_SECTIONS = {section for section, _ in _KEYS}


def parse_scenario(path) -> ScenarioConfig:
    """Read one scenario file; strict about every section and key.

    A section may be opened more than once, but each key is given once.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    values: dict[str, object] = {}
    given: dict[tuple[str, str], int] = {}  # (section, key) -> its line
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ScenarioError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ScenarioError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _KEYS:
            raise ScenarioError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        first = given.setdefault((section, key), lineno)
        if first != lineno:
            raise ScenarioError(
                f"{path}:{lineno}: key {key!r} in [{section}] is already given on line {first}"
            )
        fieldname, convert, _ = _KEYS[(section, key)]
        try:
            converted = convert(value)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        if section == "inflows":
            values.setdefault(fieldname, {})[key] = converted
        else:
            values[fieldname] = converted

    values.setdefault("name", path.stem)
    try:
        config = ScenarioConfig(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    for (section, key), lineno in given.items():
        rule = _KEYS[(section, key)][2]
        if rule is not None and not rule[1](config):
            raise ScenarioError(f"{path}:{lineno}: key {key!r} in [{section}] needs {rule[0]}")
    return config


# --------------------------------------------------------------------- runner

def run_single(config: ScenarioConfig, seed: int) -> ScenarioReport:
    """One seeded run of one scenario arm.  The taps read the live attack
    plan, which starts as `config.attack_window`, and the live filter
    policy; the replan and recompute hooks rebind them."""
    network = config.network
    sim_cfg = config.sim_config()
    controller = build_controller(config.controller, network, sim_cfg)
    lane_ids = [ln.id for ln in network.lanes()]
    theta = {ln.id: max_flow(ln.diagram) for ln in network.lanes()}
    plan = config.attack_window
    policy = fair_policy(lane_ids) if config.mitigation == "fair" else none_policy(lane_ids)
    weights_log: list[tuple[float, str, dict[str, float]]] = []

    def attack_tap(t: float, dt: float) -> dict[str, int]:
        return inject(plan, t, dt)

    def mitigation_tap(obs):
        return filter_perception(obs, policy)

    world = World(
        network,
        controller,
        seed=seed,
        config=sim_cfg,
        attack_injector=attack_tap if plan is not None else None,
        perception_filter=mitigation_tap if config.mitigation != "none" else None,
    )

    if plan is not None:
        # a focused attack's rival lane sets: each junction's phases' lanes
        groups = [
            [list(phase.served_lanes) for phase in junction.phase_table]
            for junction in network.junctions
        ] if config.single_direction else None

        def replan_attack(w: World, t: float) -> None:
            nonlocal plan
            if t >= plan.start_time + plan.duration - TIME_TOL:
                return
            flows = w.measured_flows()
            if config.attack == "game_optimal":
                plan = plan_optimal_attack(lane_ids, theta, flows, plan, focus_groups=groups)
            else:
                plan = plan_greedy_attack(
                    network, w.lane_delay_estimates(), w.lane_densities(), flows, plan
                )

        world.add_hook(
            replan_attack, start=config.attack_start, interval=config.attack_replan
        )

    if config.mitigation == "optimal":

        def recompute_policy(w: World, t: float) -> None:
            nonlocal policy
            try:
                policy = optimal_policy(lane_ids, theta, w.measured_flows())
            except GameSolverError:  # degrade to no filtering, logged as "none"
                policy = none_policy(lane_ids)
            weights_log.append((t, policy.kind, dict(policy.weights)))

        world.add_hook(recompute_policy, start=0.0, interval=config.mitigation_cadence)

    result = run(world, config.horizon)
    trips = trip_records(result.trips)
    return ScenarioReport(
        scenario=config.name,
        seed=seed,
        mean_trip_waiting_time=mean_trip_waiting_time(trips),
        mean_time_loss=mean_time_loss(trips),
        trips_completed=len(trips),
        censored=result.censored,
        policy=config.mitigation,
        attack=config.attack,
        controller=config.controller,
        flow_summary=world.measured_flows(),
        weights_log=tuple(weights_log),
    )


def run_suite(
    configs,
    *,
    parallelism: int = 1,
    seeds=None,
) -> tuple[list[ScenarioReport], str, str]:
    """Run scenario arms across a worker pool; merge is order-independent.

    Returns (reports, csv text, summary text).  Results are sorted by
    (scenario, seed) before serialisation, so any parallelism level yields
    byte-identical output for identical inputs.
    """
    configs = list(configs)
    if not configs:
        raise ScenarioError("no scenarios given")
    if seeds is not None:  # replace() checks an override as it does a file's seeds
        seeds = tuple(seeds)
        configs = [replace(config, seeds=seeds) for config in configs]
    jobs = [(config, seed) for config in configs for seed in config.seeds]
    workers = min(parallelism, len(jobs))  # the pool starts every worker at once
    if workers <= 1:
        reports = [run_single(config, seed) for config, seed in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(run_single, *zip(*jobs)))  # the configs, the seeds
    reports.sort(key=lambda r: (r.scenario, r.seed))
    return reports, metrics.reports_to_csv(reports), metrics.summarize(reports)
