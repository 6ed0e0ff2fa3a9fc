"""Measure the baseline and the run-to-run spread; write baseline.json.

    python3 perfbench/baseline.py

For each workload: ten untraced runs of run.py, on seeds 0-9, each for
BENCHMARK.json's run_seconds, then one traced run on seed 0.  For every
end-to-end metric it reports the median, the quartiles and their distance as
a share of the median, against the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

RUNS = 10
# Its block of simulation seeds is not one the baseline's seeds 0-9 use.
HELD_OUT_SEED = 10

# Which end-to-end metric, on which workloads, each layer metric should move.
LAYER_TO_END_TO_END = {
    "sim.step.*": "wall_s, lane_steps_per_s on arterial_suite and grid_clean (physics: arrivals, queue joins, discharge, wait accrual)",
    "sim.observe.*, controllers.decide.*": "wall_s on grid_clean; must not regress arterial_suite",
    "sim.measured_flows.*, sim.run.self_s": "wall_s on every workload (hook dispatch and flow sampling)",
    "sim.events, sim.trips_completed, controllers.phase_changes": "none: counts that must repeat exactly",
    "attack.inject.*, attack.phantoms": "wall_s on arterial_suite",
    "attack.plan.*": "wall_s on arterial_suite and grid_attack_filtered",
    "mitigation.filter.*": "wall_s on arterial_suite and grid_attack_filtered",
    "mitigation.recompute.*, mitigation.fallback_frac": "wall_s on grid_attack_filtered",
    "game.solve.*, game.dim": "wall_s on grid_attack_filtered; 0 calls on grid_clean",
    "simplex.*": "wall_s on grid_attack_filtered; tableau_bytes is computed from the LP shapes",
    "scenario.run_single.*, networks.build_s, metrics.busy_s": "setup_s and wall_s on every workload",
    "scenario.pool.efficiency": "wall_s on arterial_suite only",
    "trace.overhead_frac": "none: the cost of tracing itself",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    context = json.loads(next(ln for ln in lines if ln.startswith("context "))[8:])
    return json.loads(lines[-1]), context


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    out = {
        "held_out_seed": HELD_OUT_SEED,
        "run_seconds": seconds,
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "workloads": {},
    }
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        results = [run(name, seed, seconds, 0) for seed in range(RUNS)]
        entry = {
            "seeds": list(range(RUNS)),
            "contexts": [context for _, context in results],
            "correct": all(r["correct"] for r, _ in results),
            "attempted": sum(r["attempted"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "end_to_end": {},
        }
        for metric, spec in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in results]
            entry["end_to_end"][metric] = dict(spread(values), unit=spec["unit"],
                                               bound=spec["bound"], values=values)
            print(f"{name:22s} {metric:18s} median {entry['end_to_end'][metric]['median']:.6g}"
                  f" iqr/median {entry['end_to_end'][metric]['iqr_frac']:.4f}"
                  f" bound {spec['bound']}", flush=True)
            if metric != "setup_s":
                steady &= entry["end_to_end"][metric]["iqr_frac"] <= spec["bound"] / 3
        traced, context = run(name, 0, seconds, 1)
        entry["traced"] = {"seed": 0, "context": context, "correct": traced["correct"],
                           "metrics": traced["metrics"]}
        out["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    print("every spread below a third of its bound" if steady else "NOT STEADY")
    return 0


if __name__ == "__main__":
    sys.exit(main())
