"""Record the reference reports.csv rows of every workload's seed pool.

    python3 perfbench/record_reference.py

Run once at the commit the references stand for; run.py fails any job
whose row differs from them.  Each file holds the rows of every block of
simulation seeds a benchmark seed can select.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sybil_atsc.scenario import run_suite  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    for name, workload in WORKLOADS.items():
        _, csv_text, _ = run_suite(
            workload.configs(),
            parallelism=len(os.sched_getaffinity(0)),
            seeds=workload.pool_seeds(),
        )
        workload.reference_file().write_text(csv_text)
        print(f"{name}: {len(csv_text.splitlines()) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
