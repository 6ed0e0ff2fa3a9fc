"""The simulator's output, pinned.

One digest hashes, for every reference arm (seed 1, 5000 s) and both
benchmark grids, the trip log (`trips_to_text`), the report row
(`reports_to_csv`), the mitigation weights log and the flow summary.  The
trips' times and the other floats are also hashed as `float.hex()`: the
text forms round to six decimals, and this way every bit counts and the
digest does not depend on how numpy prints a scalar.
A second digest pins two paths the reference runs never take: a
gap-actuated arm, and a run at a step (dt = 0.3 s) that binary floating
point does not hold exactly, so every accrued wait is a rounded sum.
A refactor of the step must leave both unchanged; a change that moves one
changes what the lab reports.
"""

import hashlib
from dataclasses import replace

from sybil_atsc import scenario
from sybil_atsc.metrics import reports_to_csv, trips_to_text

from conftest import REPO_ROOT, SCENARIO_DIR

SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.scn")) + sorted(
    (REPO_ROOT / "perfbench" / "scenarios").glob("*.scn")
)

DIGEST = "af21f637c19cea0d37cfcda441632ccffc1840d12b7e4f271236d3ecb5ba8ca5"

EDGE_DIGEST = "1af14a783cb81beceea8a33925f47ed72323d30217d9797a7f8132f57d4c657f"


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _canonical(report, trips) -> str:
    times = "".join(
        _hex(t.spawn_time, t.depart_time, t.accumulated_wait, t.free_flow_time) + "\n"
        for t in trips
    )
    weights = "".join(
        f"{_hex(t)} {kind} " + " ".join(f"{lid}={_hex(w)}" for lid, w in ws.items())
        + "\n"
        for t, kind, ws in report.weights_log
    )
    flows = " ".join(f"{lid}={_hex(q)}" for lid, q in report.flow_summary.items())
    return "\n".join(
        (trips_to_text(trips), times, reports_to_csv([report]), weights, flows, "")
    )


def _digest(monkeypatch, runs) -> str:
    """Hash each (label, config) run at seed 1, in order."""
    captured = []

    def keep(vehicles):
        trips = real_trip_records(vehicles)
        captured.append(trips)
        return trips

    real_trip_records = scenario.trip_records
    monkeypatch.setattr(scenario, "trip_records", keep)
    h = hashlib.sha256()
    for label, config in runs:
        report = scenario.run_single(config, 1)
        (trips,) = captured
        captured.clear()
        assert len(trips) == report.trips_completed > 0
        h.update(f"{label}\n".encode())
        h.update(_canonical(report, trips).encode())
    return h.hexdigest()


def test_simulation_digest(monkeypatch):
    assert len(SCENARIO_FILES) == 8
    runs = [(path.name, scenario.parse_scenario(path)) for path in SCENARIO_FILES]
    assert _digest(monkeypatch, runs) == DIGEST


def test_edge_path_digest(monkeypatch):
    clean = scenario.parse_scenario(SCENARIO_DIR / "adaptive_clean.scn")
    greedy = scenario.parse_scenario(SCENARIO_DIR / "attack_greedy.scn")
    runs = [
        ("gap_actuated", replace(clean, controller="gap_actuated")),
        ("dt=0.3", replace(greedy, dt=0.3, horizon=1500.0)),
    ]
    assert _digest(monkeypatch, runs) == EDGE_DIGEST
