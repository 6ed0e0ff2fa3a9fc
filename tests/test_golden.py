"""The simulator's output, pinned.

For every reference arm (seed 1, 5000 s) and both benchmark grids, one
digest hashes the trip log (`trips_to_text`), the report row
(`reports_to_csv`) and the flow summary, and a second one the mitigation
weights log.  The trips' times and the other floats are also hashed as
`float.hex()`: the text forms round to six decimals, and this way every bit
counts and the digest does not depend on how numpy prints a scalar.
The weights are pinned apart because they are the game solver's output:
solving the same game another exact way moves their last bits, and the
trip digest shows whether such a move reaches anything the lab reports.
A third digest pins two paths the reference runs never take: a
gap-actuated arm, and a run at a step (dt = 0.3 s) that binary floating
point does not hold exactly, so every accrued wait is a rounded sum;
their weights logs, both empty, are pinned too.
A refactor of the step must leave all three unchanged; a change that moves
the trip digest or the third one changes what the lab reports.
The game-path grid's report rows are also pinned at every seed the
benchmark can draw, against the rows the benchmark itself checks.
"""

import hashlib
from dataclasses import replace

import pytest

from sybil_atsc import scenario
from sybil_atsc.metrics import reports_to_csv, trips_to_text

from conftest import REPO_ROOT, SCENARIO_DIR

PERFBENCH_DIR = REPO_ROOT / "perfbench"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.scn")) + sorted(
    (PERFBENCH_DIR / "scenarios").glob("*.scn")
)

DIGEST = "5e73c4d3d87a882da5d1c646bf41ba37e147cab35991f6df13bd5cc797ae6cc0"

WEIGHTS_DIGEST = "5206ea4eb5c88b007e87880243739e8f94effaa86d3b0dd1c4f1a402cd4cdb09"

EDGE_DIGEST = "1af14a783cb81beceea8a33925f47ed72323d30217d9797a7f8132f57d4c657f"

# the two edge runs log no weights: this is their labels over empty logs
EDGE_WEIGHTS_DIGEST = "57d7e3e2ce66f3abf8975698b13c4c92a046a59b62f5597a2c41ce3134a18e7c"


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _canonical(report, trips) -> tuple[str, str]:
    """The run's trips, report row and flows as text, and its weights log."""
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
    # the empty field is the weights log's slot; the log is hashed apart
    outputs = "\n".join(
        (trips_to_text(trips), times, reports_to_csv([report]), "", flows, "")
    )
    return outputs, weights


def run_with_trips(config, seed):
    """One seeded `run_single` of `config`: its report and its trip records."""
    captured = []

    def keep(vehicles):
        trips = real_trip_records(vehicles)
        captured.append(trips)
        return trips

    real_trip_records = scenario.trip_records
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(scenario, "trip_records", keep)
        report = scenario.run_single(config, seed)
    (trips,) = captured
    return report, trips


def _digests(runs) -> tuple[str, str]:
    """Hash each (label, config) run at seed 1, in order: (outputs, weights)."""
    outputs, weights = hashlib.sha256(), hashlib.sha256()
    for label, config in runs:
        report, trips = run_with_trips(config, 1)
        assert len(trips) == report.trips_completed > 0
        for h, text in zip((outputs, weights), _canonical(report, trips)):
            h.update(f"{label}\n".encode())
            h.update(text.encode())
    return outputs.hexdigest(), weights.hexdigest()


@pytest.fixture(scope="module")
def reference_digests() -> tuple[str, str]:
    assert len(SCENARIO_FILES) == 8
    runs = [(path.name, scenario.parse_scenario(path)) for path in SCENARIO_FILES]
    return _digests(runs)


def test_simulation_digest(reference_digests):
    assert reference_digests[0] == DIGEST


def test_weights_log_digest(reference_digests):
    assert reference_digests[1] == WEIGHTS_DIGEST


def test_edge_path_digest():
    clean = scenario.parse_scenario(SCENARIO_DIR / "adaptive_clean.scn")
    greedy = scenario.parse_scenario(SCENARIO_DIR / "attack_greedy.scn")
    runs = [
        ("gap_actuated", replace(clean, controller="gap_actuated")),
        ("dt=0.3", replace(greedy, dt=0.3, horizon=1500.0)),
    ]
    assert _digests(runs) == (EDGE_DIGEST, EDGE_WEIGHTS_DIGEST)


def test_game_path_grid_matches_benchmark_reference():
    # seeds 1-11: one per block of simulation seeds a benchmark seed selects
    config = scenario.parse_scenario(
        PERFBENCH_DIR / "scenarios" / "grid_attack_filtered.scn"
    )
    reference = (PERFBENCH_DIR / "reference" / "grid_attack_filtered.csv").read_bytes()
    _, csv_text, _ = scenario.run_suite([config], seeds=range(1, 12))
    assert csv_text.encode().splitlines() == reference.splitlines()
