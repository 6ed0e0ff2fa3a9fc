"""Benchmark of the sybil-atsc lab: end-to-end host time and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (see workloads.py): arterial_suite, grid_attack_filtered,
grid_clean.  Every pass goes through `run_suite`, and each job's
reports.csv row is compared byte for byte with the reference recorded at the
seed commit; a job fails if it raises or its row differs.

--trace 0 repeats the workload at parallelism = nproc for up to S seconds
(at least one pass) and reports wall_s, lane_steps_per_s and setup_s, each
scaled to a fixed host speed (see REFERENCE_S), and peak_rss_mb.

--trace 1 makes one untraced pass at nproc, one at parallelism 1 and one
traced pass at parallelism 1, checks the three write the same bytes and
that every wrapper fired as the workload predicts, and reports the
per-layer metrics; the spans go to perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import os

# Before numpy loads: never ask for more threads than there are cores.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import concurrent.futures
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7

# A shared host can change speed by a half from one second to the next
# (another tenant busy on the same core), and every pass slows with it.  So a
# pass's host time is scaled to a fixed host speed: the one at which
# _reference_loop takes REFERENCE_S, its typical time on the 2-core Intel
# Xeon host baseline.json was measured on.  Times in ref-s are host seconds
# at that speed; setup_s is scaled the same way, in s as the benchmark's
# set-up time must be.
REFERENCE_S = 0.005

# Import, scenario parse, network build and World construction of the first
# job, timed in a fresh interpreter so the package import is really paid.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sybil_atsc.controllers import build_controller
from sybil_atsc.scenario import parse_scenario
from sybil_atsc.sim import World
configs = [parse_scenario(path) for path in sys.argv[3:]]
config = configs[0]
network = config.build_network()
sim_cfg = config.sim_config()
controller = build_controller(config.controller, network, sim_cfg)
World(network, controller, seed=int(sys.argv[2]), config=sim_cfg)
print(time.perf_counter() - t0)
"""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def machine_context() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": _nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


def measure_setup(workload, sim_seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), str(sim_seed)]
        + [str(p) for p in workload.scenario_files],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class Pass:
    """One run of the workload through run_suite, timed and checked."""

    def __init__(self, workload, configs, seeds, reference):
        self.workload = workload
        self.configs = configs
        self.seeds = seeds
        self.reference = reference
        self.jobs = [(c.name, s) for c in configs for s in seeds]

    def run(self, parallelism: int) -> tuple[float, str | None, int]:
        """(wall seconds, reports.csv text or None, failed jobs)."""
        from sybil_atsc.scenario import run_suite
        from workloads import failed_jobs

        t0 = time.perf_counter()
        try:
            _, csv_text, _ = run_suite(
                self.configs, parallelism=parallelism, seeds=self.seeds
            )
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - t0, None, len(self.jobs)
        wall = time.perf_counter() - t0
        return wall, csv_text, failed_jobs(csv_text, self.jobs, self.reference)


def _reference_loop(_=None) -> float:
    """Median time of a fixed piece of work that touches nothing of the lab:
    interpreter arithmetic and small numpy row updates, its two kinds of work."""
    import numpy as np

    row, pivot = np.ones(800), np.ones(800)
    times = []
    for _ in range(11):
        t0 = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i
        for _ in range(1_200):
            row -= 0.5 * pivot
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_time(processes: int) -> float:
    """The reference loop's time now, run in `processes` processes at once."""
    if processes == 1:
        return _reference_loop()
    # fork, as run_suite's pool does here: no thread is alive at this point,
    # and fresh interpreters would spend the run's time importing numpy
    fork = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(processes, mp_context=fork) as pool:
        return statistics.mean(pool.map(_reference_loop, range(processes)))


def at_reference_speed(times: list[float], refs: list[float]) -> list[float]:
    """Each of `times` scaled to REFERENCE_S, by the reference loop's time
    just before it (refs[i]) and just after it (refs[i + 1])."""
    return [t * REFERENCE_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]


def end_to_end(work: Pass, sim_seed: int, seconds: float) -> dict:
    from workloads import lane_steps

    nproc = _nproc()
    setup, setup_refs = [], [reference_time(1)]
    for _ in range(SETUP_SAMPLES):
        setup.append(measure_setup(work.workload, sim_seed))
        setup_refs.append(reference_time(1))
    # the reference loop runs with the parallelism the pass really has
    processes = min(nproc, len(work.jobs))
    walls, refs, outputs = [], [reference_time(processes)], set()
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall, csv_text, bad = work.run(nproc)
        refs.append(reference_time(processes))
        walls.append(wall)
        attempted += len(work.jobs)
        failed += bad
        if csv_text is None:
            break
        outputs.add(csv_text)
        # stop before a pass that would end after the time given
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    wall_s = statistics.median(at_reference_speed(walls, refs))
    return {
        "correct": failed == 0 and len(outputs) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": (wall_s, "ref-s"),
            "lane_steps_per_s": (
                lane_steps(work.configs, work.seeds) / wall_s, "lane-steps/ref-s"
            ),
            "setup_s": (statistics.median(at_reference_speed(setup, setup_refs)), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {
            "host_wall_s": statistics.median(walls),
            "host_setup_s": statistics.median(setup),
            "walls_s": walls,
            "reference_loop_s": refs,
            "setup_samples_s": setup,
            "setup_reference_loop_s": setup_refs,
        },
    }


def traced(work: Pass) -> dict:
    from layers import LAYER_METRICS, Tracer

    nproc = _nproc()
    wall_par, csv_par, bad_par = work.run(nproc)
    wall_p1, csv_p1, bad_p1 = work.run(1)
    with Tracer() as tracer:
        wall_tr, csv_tr, bad_tr = work.run(1)

    problems = []
    if csv_par is None or not csv_par == csv_p1 == csv_tr:
        problems.append("reports.csv differs between the nproc, p=1 and traced passes")
    for name, calls in tracer.wrapper_calls().items():
        idle = name in work.workload.idle_wrappers
        if (calls == 0) != idle:
            problems.append(f"wrapper {name}: {calls} calls, expected {'0' if idle else '> 0'}")
    if tracer.game_dims - {tracer.lanes}:
        problems.append(f"game dims {sorted(tracer.game_dims)} != {tracer.lanes} lanes")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    values = tracer.metrics(
        pool_efficiency=wall_p1 / (nproc * wall_par),
        overhead_frac=wall_tr / wall_p1 - 1.0,
    )
    OUT.mkdir(exist_ok=True)
    tracer.recorder.write(OUT / f"spans-{work.workload.name}.npz")
    failed = bad_par + bad_p1 + bad_tr
    return {
        "correct": failed == 0 and not problems,
        "attempted": 3 * len(work.jobs),
        "failed": failed,
        "metrics": {name: (values[name], unit) for name, unit, _ in LAYER_METRICS},
        "detail": {
            "walls_s": {"nproc": wall_par, "p1": wall_p1, "traced_p1": wall_tr},
            "wrapper_calls": tracer.wrapper_calls(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sybil_atsc" / "__init__.py").is_file():
        print(f"error: no sybil_atsc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; use one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    context = machine_context()
    seeds = workload.sim_seeds(args.seed)
    work = Pass(workload, workload.configs(), seeds, workload.reference())
    if args.trace:
        result = traced(work)
    else:
        result = end_to_end(work, seeds[0], args.seconds)

    ops_failed = result["failed"] / result["attempted"]
    print(f"workload {workload.name}  seed {args.seed}  sim seeds {seeds[0]}-{seeds[-1]}"
          f"  trace {args.trace}")
    print("context " + json.dumps(context))
    print("detail " + json.dumps(result["detail"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:.6g} {unit}")
    for name in ("host_wall_s", "host_setup_s"):
        if name in result["detail"]:
            print(f"{name:32s} {result['detail'][name]:.6g} s (unscaled)")
    print(f"{'ops_failed':32s} {ops_failed:.6g} ratio "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
