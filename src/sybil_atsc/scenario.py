"""Scenario files, single runs and suite execution.

A scenario is a flat `key = value` text file with `[section]` headers.
Parsing is strict -- an unknown section or key is an error, not a warning --
so a typo cannot silently fall back to a default.  A parsed config plus a
seed fully determines every output byte of a run.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from . import metrics
from .attack import ATTACK_KINDS, inject, plan_greedy_attack, plan_optimal_attack
from .controllers import CONTROLLER_KINDS, build_controller
from .game import GameSolverError
from .metrics import ScenarioReport, mean_time_loss, mean_trip_waiting_time, trip_records
from .mitigation import (
    MITIGATION_KINDS,
    fair_policy,
    filter_perception,
    none_policy,
    optimal_policy,
)
from .networks import grid, three_junction_reference
from .sim import POISSON_LAM_MAX, SimConfig, World, run
from .traffic_model import max_flow, validate_network

__all__ = [
    "ScenarioConfig",
    "ScenarioError",
    "parse_scenario",
    "run_scenario",
    "run_suite",
    "default_seeds",
    "seed_list",
    "DEFAULT_SEEDS",
]

FIXTURES = ("three_junction_reference", "grid")
DEFAULT_SEEDS = tuple(range(1, 11))
SEED_ENV_VAR = "SYBIL_ATSC_SEED"


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "scenario"
    fixture: str = "three_junction_reference"
    horizon: float = 5000.0
    controller: str = "adaptive"
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    dt: float = 1.0
    # grid fixture geometry (defaults follow the standard grid setup)
    grid_rows: int = 10
    grid_cols: int = 10
    lanes_per_direction: int = 2
    # demand overrides, veh/h per entry direction; the fixture's defaults
    # fill in every direction not listed here
    inflows_vph: dict[str, float] | None = None
    # diagram / geometry overrides
    free_speed: float = 35.0
    jam_density: float = 0.16
    lane_length: float | None = None  # None = fixture default
    saturation_flow: float = 0.5
    # control parameters
    min_green: float = 5.0
    max_green: float = 45.0
    yellow: float = 3.0
    max_gap: float = 3.0
    decision_interval: float = 5.0
    switch_penalty: float = 2.0
    fixed_splits: tuple[float, ...] = (40.0, 20.0)
    flow_window: float = 300.0
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
    impact_floor: float = 0.0  # 0 disables the floor

    def validate(self) -> None:
        """Reject every value the run would read and could not use.

        Every float must be finite, whichever arm would read it.  Attack
        values are checked when an attack runs and mitigation values when
        the optimal filter runs; the geometry is checked by building the
        network, so its bounds live with the network types.
        """
        problems = []
        if self.fixture not in FIXTURES:
            problems.append(f"fixture must be one of {FIXTURES}, got {self.fixture!r}")
        if self.controller not in CONTROLLER_KINDS:
            problems.append(
                f"controller must be one of {CONTROLLER_KINDS}, got {self.controller!r}"
            )
        if self.attack not in ATTACK_KINDS:
            problems.append(f"attack must be one of {ATTACK_KINDS}, got {self.attack!r}")
        if self.mitigation not in MITIGATION_KINDS:
            problems.append(
                f"mitigation must be one of {MITIGATION_KINDS}, got {self.mitigation!r}"
            )
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
        if self.dt <= 0:
            problems.append("dt must be > 0")
        if not self.seeds:
            problems.append("need at least one seed")
        if "," in self.name:
            problems.append("scenario name must not contain commas")
        if self.flow_window <= 0:
            problems.append("flow_window must be > 0")
        if self.decision_interval < 0:
            problems.append("decision_interval must be >= 0")
        if not self.fixed_splits or min(self.fixed_splits) <= 0:
            problems.append("fixed_splits must list one or more durations > 0")
        if self.attack != "none":
            if self.attack_start < 0:
                problems.append("attack start must be >= 0")
            if self.duty_on <= 0 or self.duty_off < 0:
                problems.append("duty_on must be > 0 and duty_off >= 0")
            if self.attack_budget is not None and self.attack_budget <= 0:
                problems.append("attack budget must be > 0 or auto")
            if self.attack_duration is not None and self.attack_duration < 0:
                problems.append("attack duration must be >= 0 or auto")
            if self.attack_replan <= 0:
                problems.append("attack replan_interval must be > 0")
        if self.mitigation == "optimal":
            if self.mitigation_cadence <= 0:
                problems.append("mitigation cadence must be > 0")
            if self.impact_floor < 0:
                problems.append("impact_floor must be >= 0")
        try:
            network = self.build_network()
            problems.extend(validate_network(network))
            # a step's arrivals on a lane are one Poisson(inflow_rate * dt) draw
            problems += [f"demand on lane {ln.id} is too large to draw in one step"
                         for ln in network.lanes() if ln.inflow_rate * self.dt > POISSON_LAM_MAX]
        except ValueError as exc:
            problems.append(str(exc))
        if problems:
            raise ScenarioError("; ".join(problems))

    def build_network(self):
        shared = dict(
            free_speed=self.free_speed,
            jam_density=self.jam_density,
            saturation_flow=self.saturation_flow,
            inflows_vph=self.inflows_vph,
            min_green=self.min_green,
            max_green=self.max_green,
            yellow=self.yellow,
        )
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
        return SimConfig(
            dt=self.dt,
            flow_window=self.flow_window,
            max_gap=self.max_gap,
            decision_interval=self.decision_interval,
            switch_penalty=self.switch_penalty,
            fixed_splits=self.fixed_splits,
        )


def seed_list(text: str) -> tuple[int, ...]:
    """Comma-separated seeds, e.g. "1,2,3"; raises ValueError on a bad one."""
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def default_seeds() -> tuple[int, ...]:
    """Built-in seed list, overridable via the SYBIL_ATSC_SEED variable."""
    env = os.environ.get(SEED_ENV_VAR)
    if not env:
        return DEFAULT_SEEDS
    try:
        return seed_list(env)
    except ValueError as exc:
        raise ScenarioError(f"bad {SEED_ENV_VAR} value {env!r}: {exc}") from exc


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
    """A float, or None for `auto` (the value is then derived at run time)."""
    if text.lower() == "auto":
        return None
    return float(text)


# (section, key) -> (config field, converter)
_KEYS = {
    ("scenario", "name"): ("name", str),
    ("scenario", "fixture"): ("fixture", str),
    ("scenario", "horizon"): ("horizon", float),
    ("scenario", "controller"): ("controller", str),
    ("scenario", "seeds"): ("seeds", seed_list),
    ("scenario", "dt"): ("dt", float),
    ("grid", "rows"): ("grid_rows", int),
    ("grid", "cols"): ("grid_cols", int),
    ("grid", "lanes_per_direction"): ("lanes_per_direction", int),
    ("inflows", "top"): ("_inflow_top", float),
    ("inflows", "bottom"): ("_inflow_bottom", float),
    ("inflows", "left"): ("_inflow_left", float),
    ("inflows", "right"): ("_inflow_right", float),
    ("diagram", "free_speed"): ("free_speed", float),
    ("diagram", "jam_density"): ("jam_density", float),
    ("diagram", "lane_length"): ("lane_length", _parse_auto),
    ("diagram", "saturation_flow"): ("saturation_flow", float),
    ("control", "min_green"): ("min_green", float),
    ("control", "max_green"): ("max_green", float),
    ("control", "yellow"): ("yellow", float),
    ("control", "max_gap"): ("max_gap", float),
    ("control", "decision_interval"): ("decision_interval", float),
    ("control", "switch_penalty"): ("switch_penalty", float),
    ("control", "fixed_splits"): ("fixed_splits", _parse_splits),
    ("control", "flow_window"): ("flow_window", float),
    ("attack", "kind"): ("attack", str),
    ("attack", "budget"): ("attack_budget", _parse_auto),
    ("attack", "start"): ("attack_start", float),
    ("attack", "duration"): ("attack_duration", _parse_auto),
    ("attack", "duty_on"): ("duty_on", float),
    ("attack", "duty_off"): ("duty_off", float),
    ("attack", "replan_interval"): ("attack_replan", float),
    ("attack", "single_direction"): ("single_direction", _parse_bool),
    ("mitigation", "kind"): ("mitigation", str),
    ("mitigation", "cadence"): ("mitigation_cadence", float),
    ("mitigation", "impact_floor"): ("impact_floor", float),
}

_SECTIONS = {section for section, _ in _KEYS}


def parse_scenario(path) -> ScenarioConfig:
    """Read one scenario file; strict about every section and key."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    values: dict[str, object] = {}
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
        fieldname, convert = _KEYS[(section, key)]
        try:
            converted = convert(value)
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        if fieldname.startswith("_inflow_"):
            direction = fieldname.removeprefix("_inflow_")
            values.setdefault("inflows_vph", {})[direction] = converted
        else:
            values[fieldname] = converted

    values.setdefault("name", path.stem)
    if "seeds" not in values:
        values["seeds"] = default_seeds()
    config = ScenarioConfig(**values)
    try:
        config.validate()
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return config


# --------------------------------------------------------------------- runner

def _phase_groups(network) -> list[list[list[str]]]:
    return [
        [list(phase.served_lanes) for phase in junction.phase_table]
        for junction in network.junctions
    ]


class _AttackTap:
    """Holds the live plan; the world calls it once per snapshot it builds."""

    def __init__(self):
        self.plan = None

    def __call__(self, t: float, dt: float) -> dict[str, int]:
        if self.plan is None:
            return {}
        return inject(self.plan, t, dt)


class _MitigationTap:
    def __init__(self, policy):
        self.policy = policy
        self.log: list[tuple[float, str, dict[str, float]]] = []

    def __call__(self, obs):
        return filter_perception(obs, self.policy)


def run_single(config: ScenarioConfig, seed: int) -> ScenarioReport:
    """One seeded run of one scenario arm."""
    config.validate()
    network = config.build_network()
    sim_cfg = config.sim_config()
    controller = build_controller(config.controller, network, sim_cfg)
    lane_ids = [ln.id for ln in network.lanes()]
    theta = {ln.id: max_flow(ln.diagram) for ln in network.lanes()}

    attack_tap = _AttackTap() if config.attack != "none" else None
    policy = (
        fair_policy(lane_ids)
        if config.mitigation == "fair"
        else none_policy(lane_ids)
    )
    mitigation_tap = _MitigationTap(policy) if config.mitigation != "none" else None

    world = World(
        network,
        controller,
        seed=seed,
        config=sim_cfg,
        attack_injector=attack_tap,
        perception_filter=mitigation_tap,
    )

    budget = (
        config.attack_budget
        if config.attack_budget is not None
        else 0.3 * sum(theta.values())
    )
    duration = (
        config.attack_duration
        if config.attack_duration is not None
        else max(0.0, config.horizon - config.attack_start)
    )

    if attack_tap is not None:

        def replan_attack(w: World, t: float) -> None:
            if t >= config.attack_start + duration - 1e-9:
                return
            flows = w.measured_flows()
            if config.attack == "game_optimal":
                attack_tap.plan = plan_optimal_attack(
                    lane_ids,
                    theta,
                    flows,
                    budget,
                    start_time=config.attack_start,
                    duration=duration,
                    duty_on=config.duty_on,
                    duty_off=config.duty_off,
                    focus_groups=_phase_groups(network)
                    if config.single_direction
                    else None,
                )
            else:
                attack_tap.plan = plan_greedy_attack(
                    network,
                    w.lane_delay_estimates(),
                    w.lane_densities(),
                    flows,
                    budget,
                    start_time=config.attack_start,
                    duration=duration,
                    duty_on=config.duty_on,
                    duty_off=config.duty_off,
                )

        world.add_hook(
            replan_attack, start=config.attack_start, interval=config.attack_replan
        )

    if mitigation_tap is not None and config.mitigation == "optimal":

        def recompute_policy(w: World, t: float) -> None:
            try:
                mitigation_tap.policy = optimal_policy(
                    lane_ids,
                    theta,
                    w.measured_flows(),
                    impact_floor_ratio=config.impact_floor,
                )
            except GameSolverError:  # degrade to no filtering, logged as "none"
                mitigation_tap.policy = none_policy(lane_ids)
            mitigation_tap.log.append(
                (t, mitigation_tap.policy.kind, dict(mitigation_tap.policy.weights))
            )

        world.add_hook(recompute_policy, start=0.0, interval=config.mitigation_cadence)

    result = run(world, config.horizon)
    trips = trip_records(result.trips)
    weights_log = tuple(mitigation_tap.log) if mitigation_tap else ()
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
        mitigation_fallback=any(kind == "none" for _, kind, _ in weights_log),
        weights_log=weights_log,
    )


def run_scenario(config: ScenarioConfig, seeds=None) -> list[ScenarioReport]:
    """Run every seed of one scenario arm sequentially."""
    seeds = tuple(seeds) if seeds is not None else config.seeds
    return [run_single(config, seed) for seed in seeds]


def _job(args):
    config, seed = args
    return run_single(config, seed)


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
    jobs = []
    for config in configs:
        config.validate()
        for seed in seeds if seeds is not None else config.seeds:
            jobs.append((config, seed))
    if not jobs:
        raise ScenarioError("no seeds given")
    workers = min(parallelism, len(jobs))  # the pool starts every worker at once
    if workers <= 1:
        reports = [_job(j) for j in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_job, jobs))
    reports.sort(key=lambda r: (r.scenario, r.seed))
    return reports, metrics.reports_to_csv(reports), metrics.summarize(reports)
