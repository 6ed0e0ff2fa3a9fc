from dataclasses import replace

import numpy as np
import pytest
from sybil_atsc import attack, scenario
from sybil_atsc.game import build_payoff_matrix
from sybil_atsc.scenario import run_suite

from layers import LAYER_METRICS, WRAPPERS, Tracer, owner
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def short_suite():
    # the six reference arms cut to 1000 s: the attack (from 900 s), the
    # policy recomputes and both controllers all still run
    return [replace(c, horizon=1000.0) for c in WORKLOADS["arterial_suite"].configs()]


def test_every_expected_wrapper_fires_and_output_is_unchanged(short_suite):
    _, plain_csv, plain_summary = run_suite(short_suite, seeds=[1])
    with Tracer() as tracer:
        _, traced_csv, traced_summary = run_suite(short_suite, seeds=[1])
    assert (traced_csv, traced_summary) == (plain_csv, plain_summary)

    idle = WORKLOADS["arterial_suite"].idle_wrappers
    calls = tracer.wrapper_calls()
    assert len(calls) == len(WRAPPERS)
    for name, count in calls.items():
        assert (count == 0) == (name in idle), (name, count)

    values = tracer.metrics(pool_efficiency=1.0, overhead_frac=0.0)
    assert set(values) == {name for name, _, _ in LAYER_METRICS}
    assert values["sim.step.calls"] == 6 * 1000
    assert values["controllers.decide.calls"] == values["sim.step.calls"]
    assert values["scenario.run_single.calls"] == 6
    assert values["game.dim"] == 12 and tracer.game_dims == {12}
    assert values["sim.trips_completed"] > 0 and values["attack.phantoms"] > 0
    assert values["game.solve.calls"] > 0
    assert values["simplex.solve_lp.calls"] == values["game.solve.calls"]
    # the traced time splits exactly into the layers' self times
    spans = tracer.recorder.arrays()
    roots = spans["parent"] < 0
    root_time = (spans["end"] - spans["start"])[roots].sum()
    total_self = sum(s.self_s for s in tracer.layer_stats().values())
    assert total_self == pytest.approx(root_time, rel=1e-9)


def test_uninstall_restores_every_name():
    before = {(m, c, a): vars(owner(m, c))[a] for m, c, a, _ in WRAPPERS}
    with Tracer():
        assert scenario.run is not before[("scenario", None, "run")]
    for (m, c, a), original in before.items():
        assert vars(owner(m, c))[a] is original


def test_tableau_bytes_follow_the_lp_shapes():
    d = 12
    with Tracer() as tracer:
        attack.solve_maxmin(build_payoff_matrix(np.full(d, 2.0), np.zeros(d)))
    # d <= rows and one = row; columns: d+1 variables, d slacks, one
    # artificial, the right-hand side
    assert tracer.tableau_bytes == (d + 1) * ((d + 1) + d + 1 + 1) * 8
    assert tracer.game_dims == {d}
