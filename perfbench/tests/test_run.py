import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
BENCHMARK = json.loads((CHECKOUT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_result_line_carries_every_end_to_end_metric():
    proc = run(CHECKOUT, "--workload", "grid_clean", "--seed", "3",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path, "--workload", "grid_clean", "--seed", "0",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
