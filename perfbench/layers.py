"""Outside-in layer tracing: wrappers around the calls into each module.

Every wrapper replaces a name where its caller looks it up, so the package
itself is not modified: `scenario.py` imports `run`, `inject`,
`filter_perception`, `plan_*_attack`, `optimal_policy` and the metrics
helpers by name, so those names are patched inside `sybil_atsc.scenario`;
`solve_maxmin` inside `sybil_atsc.attack`, `solve_minimax` inside
`sybil_atsc.mitigation`, `solve_lp` inside `sybil_atsc.game`; methods on
their classes.  A wrapper's span is named `<layer>:<wrapped name>`, so calls
can be checked per wrapper and time summed per layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter

import numpy as np

from spans import NameStats, SpanRecorder

# (module under sybil_atsc, class or None, attribute, layer)
WRAPPERS = (
    ("scenario", None, "run_single", "scenario.run_single"),
    ("scenario", None, "three_junction_reference", "networks.build"),
    ("scenario", None, "grid", "networks.build"),
    ("scenario", None, "run", "sim.run"),
    ("sim", "World", "step", "sim.step"),
    ("sim", "World", "observe", "sim.observe"),
    ("sim", "World", "measured_flows", "sim.measured_flows"),
    ("controllers", "FixedTimeController", "decide", "controllers.decide"),
    ("controllers", "GapActuatedController", "decide", "controllers.decide"),
    ("controllers", "PressureController", "decide", "controllers.decide"),
    ("scenario", None, "inject", "attack.inject"),
    ("scenario", None, "plan_greedy_attack", "attack.plan"),
    ("scenario", None, "plan_optimal_attack", "attack.plan"),
    ("scenario", None, "filter_perception", "mitigation.filter"),
    ("scenario", None, "optimal_policy", "mitigation.recompute"),
    ("attack", None, "solve_maxmin", "game.solve"),
    ("mitigation", None, "solve_minimax", "game.solve"),
    ("game", None, "solve_lp", "simplex.solve_lp"),
    ("scenario", None, "trip_records", "metrics"),
    ("scenario", None, "mean_trip_waiting_time", "metrics"),
    ("scenario", None, "mean_time_loss", "metrics"),
    ("metrics", None, "reports_to_csv", "metrics"),
    ("metrics", None, "summarize", "metrics"),
)


def owner(module: str, cls: str | None):
    """The module or class that holds a wrapped name."""
    found = importlib.import_module(f"sybil_atsc.{module}")
    return getattr(found, cls) if cls else found


def span_name(module: str, cls: str | None, attr: str, layer: str) -> str:
    """`<layer>:<module>[.<class>].<attr>`."""
    return f"{layer}:" + ".".join(part for part in (module, cls, attr) if part)


# name, unit, better.  Each moves an end-to-end metric; the mapping is
# recorded in baseline.json.
LAYER_METRICS = (
    ("sim.step.calls", "count", "lower"),
    ("sim.step.busy_s", "s", "lower"),
    ("sim.step.self_s", "s", "lower"),
    ("sim.step.p50_us", "us", "lower"),
    ("sim.step.p99_us", "us", "lower"),
    ("sim.observe.busy_s", "s", "lower"),
    ("sim.observe.self_s", "s", "lower"),
    ("controllers.decide.calls", "count", "lower"),
    ("controllers.decide.busy_s", "s", "lower"),
    ("controllers.decide.p50_us", "us", "lower"),
    ("sim.measured_flows.calls", "count", "lower"),
    ("sim.measured_flows.busy_s", "s", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.trips_completed", "count", "higher"),
    ("controllers.phase_changes", "count", "lower"),
    ("attack.inject.calls", "count", "lower"),
    ("attack.inject.busy_s", "s", "lower"),
    ("attack.phantoms", "count", "lower"),
    ("attack.plan.calls", "count", "lower"),
    ("attack.plan.busy_s", "s", "lower"),
    ("attack.plan.self_s", "s", "lower"),
    ("attack.plan.empty_frac", "ratio", "lower"),
    ("mitigation.filter.calls", "count", "lower"),
    ("mitigation.filter.busy_s", "s", "lower"),
    ("mitigation.recompute.calls", "count", "lower"),
    ("mitigation.recompute.busy_s", "s", "lower"),
    ("mitigation.recompute.self_s", "s", "lower"),
    ("mitigation.fallback_frac", "ratio", "lower"),
    ("game.solve.calls", "count", "lower"),
    ("game.solve.busy_s", "s", "lower"),
    ("game.solve.self_s", "s", "lower"),
    ("game.solve.p50_ms", "ms", "lower"),
    ("game.solve.max_ms", "ms", "lower"),
    ("game.solve.errors", "count", "lower"),
    ("game.dim", "lanes", "lower"),
    ("simplex.solve_lp.calls", "count", "lower"),
    ("simplex.solve_lp.busy_s", "s", "lower"),
    ("simplex.solve_lp.p50_ms", "ms", "lower"),
    ("simplex.tableau_bytes", "B_computed", "lower"),
    ("scenario.run_single.calls", "count", "lower"),
    ("scenario.run_single.busy_s", "s", "lower"),
    ("scenario.run_single.self_s", "s", "lower"),
    ("networks.build_s", "s", "lower"),
    ("metrics.busy_s", "s", "lower"),
    ("scenario.pool.efficiency", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _percentile(durations: np.ndarray, q: float, scale: float) -> float:
    return float(np.percentile(durations, q)) * scale if durations.size else 0.0


_STATS = {
    "calls": lambda s: s.calls,
    "busy_s": lambda s: s.busy_s,
    "self_s": lambda s: s.self_s,
    "p50_us": lambda s: _percentile(s.durations, 50, 1e6),
    "p99_us": lambda s: _percentile(s.durations, 99, 1e6),
    "p50_ms": lambda s: _percentile(s.durations, 50, 1e3),
    "max_ms": lambda s: _percentile(s.durations, 100, 1e3),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers, records spans, and counts what layers return.

    Use as a context manager: the original names are restored on exit.
    """

    def __init__(self):
        self.recorder = SpanRecorder()
        self.errors: Counter = Counter()  # exceptions raised through a layer
        self.events = 0
        self.trips_completed = 0
        self.phase_changes = 0
        self.phantoms = 0
        self.empty_plans = 0
        self.lanes = 0  # lanes in the perception snapshot
        self.game_dims: set[int] = set()  # payoff dimensions solved
        self.tableau_bytes = 0  # largest simplex tableau, from the LP shapes
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _after_step(self, events) -> None:
        kinds = [ev.kind for ev in events]
        self.events += len(kinds)
        self.trips_completed += kinds.count("trip_complete")
        self.phase_changes += kinds.count("phase_change")

    def _after_observe(self, obs) -> None:
        self.lanes = len(obs.counts)

    def _after_inject(self, phantoms) -> None:
        self.phantoms += sum(phantoms.values())

    def _after_plan(self, plan) -> None:
        self.empty_plans += plan.is_empty

    def _before_solve(self, payoff, **_) -> None:
        self.game_dims.add(int(np.shape(getattr(payoff, "entries", payoff))[0]))

    def _before_lp(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, **_) -> None:
        # solve_lp's float64 tableau: one row per constraint; columns for the
        # variables, one slack per <= row, one artificial per = row and per
        # <= row with a negative right-hand side, plus the right-hand side
        n = np.size(c)
        n_ub = 0 if a_ub is None else np.atleast_2d(a_ub).shape[0]
        n_eq = 0 if a_eq is None else np.atleast_2d(a_eq).shape[0]
        n_art = n_eq + (0 if b_ub is None else int(np.sum(np.asarray(b_ub) < 0)))
        rows = n_ub + n_eq
        self.tableau_bytes = max(
            self.tableau_bytes, rows * (n + n_ub + n_art + 1) * 8
        )

    def install(self) -> None:
        hooks = {
            "sim.step": {"after": self._after_step},
            "sim.observe": {"after": self._after_observe},
            "attack.inject": {"after": self._after_inject},
            "attack.plan": {"after": self._after_plan},
            "game.solve": {"before": self._before_solve},
            "simplex.solve_lp": {"before": self._before_lp},
        }
        for module, cls, attr, layer in WRAPPERS:
            holder = owner(module, cls)
            original = vars(holder)[attr]  # KeyError if a name was renamed
            wrapped = self.recorder.wrap(
                original,
                span_name(module, cls, attr, layer),
                on_error=functools.partial(self.errors.update, (layer,)),
                **hooks.get(layer, {}),
            )
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- results

    def wrapper_calls(self) -> dict[str, int]:
        """Calls per wrapped name (`module[.Class].attr`), zero if never entered."""
        return {
            name.split(":", 1)[1]: s.calls for name, s in self.recorder.stats().items()
        }

    def layer_stats(self) -> dict[str, NameStats]:
        """Spans of all the wrappers of one layer, aggregated together."""
        return self.recorder.stats(group=lambda name: name.split(":", 1)[0])

    def metrics(self, *, pool_efficiency: float, overhead_frac: float) -> dict[str, float]:
        """Every metric of LAYER_METRICS, by name."""
        layers = self.layer_stats()
        plans = layers["attack.plan"].calls
        recomputes = layers["mitigation.recompute"].calls
        explicit = {
            "sim.events": self.events,
            "sim.trips_completed": self.trips_completed,
            "controllers.phase_changes": self.phase_changes,
            "attack.phantoms": self.phantoms,
            "attack.plan.empty_frac": _ratio(self.empty_plans, plans),
            "mitigation.fallback_frac": _ratio(
                self.errors["mitigation.recompute"], recomputes
            ),
            "game.solve.errors": self.errors["game.solve"],
            "game.dim": self.lanes,
            "simplex.tableau_bytes": self.tableau_bytes,
            "networks.build_s": layers["networks.build"].busy_s,
            "scenario.pool.efficiency": pool_efficiency,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, _unit, _better in LAYER_METRICS:
            if name in explicit:
                out[name] = explicit[name]
            else:
                layer, _, stat = name.rpartition(".")
                out[name] = _STATS[stat](layers[layer])
        return out
