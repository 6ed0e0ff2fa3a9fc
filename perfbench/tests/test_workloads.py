import hashlib
import json
from pathlib import Path

import pytest

from layers import LAYER_METRICS, WRAPPERS, span_name
from workloads import BLOCKS, WORKLOADS, failed_jobs

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_benchmark_json_lists_what_run_py_reports():
    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        LAYER_METRICS
    )
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "lane_steps_per_s", "setup_s", "peak_rss_mb"
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_seed_lands_on_recorded_references(name):
    workload = WORKLOADS[name]
    reference = workload.reference()
    configs = workload.configs()
    assert set(reference) == {(c.name, s) for c in configs for s in workload.pool_seeds()}
    for seed in (0, 7, BLOCKS + 7, -3, 2**31 - 1):
        seeds = workload.sim_seeds(seed)
        assert len(seeds) == workload.seeds_per_block
        assert set(seeds) <= set(workload.pool_seeds())
    assert workload.sim_seeds(7) == workload.sim_seeds(BLOCKS + 7)


def test_block_zero_is_the_paper_suite():
    workload = WORKLOADS["arterial_suite"]
    assert workload.sim_seeds(0) == tuple(range(1, 11))
    reference = workload.reference()
    rows = [reference[(c.name, s)] for c in workload.configs() for s in range(1, 11)]
    header = workload.reference_file().read_text().splitlines()[0]
    csv_text = "\n".join([header] + rows) + "\n"  # configs and seeds come sorted
    assert hashlib.sha256(csv_text.encode()).hexdigest().startswith("79bc9c46b8bf")


def test_a_changed_or_missing_row_fails_its_job():
    workload = WORKLOADS["grid_clean"]
    reference = workload.reference()
    jobs = [("grid_clean", 1), ("grid_clean", 2)]
    header = "scenario,seed,mean_wait_s,mean_time_loss_s,trips,censored,policy,attack"
    good = "\n".join([header, reference[jobs[0]], reference[jobs[1]]]) + "\n"
    assert failed_jobs(good, jobs, reference) == 0
    assert failed_jobs(good.replace(reference[jobs[1]], reference[jobs[1]] + "0"), jobs, reference) == 1
    assert failed_jobs("\n".join([header, reference[jobs[0]]]) + "\n", jobs, reference) == 1


def test_idle_wrappers_name_real_wrappers():
    wrapped = {span_name(*w).split(":", 1)[1] for w in WRAPPERS}
    for workload in WORKLOADS.values():
        assert workload.idle_wrappers <= wrapped
