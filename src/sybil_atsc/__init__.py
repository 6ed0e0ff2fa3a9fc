"""Desk-scale lab for phantom-vehicle attacks on adaptive signal control.

The package splits into three layers:

- physics: `traffic_model` (lanes, junctions, the linear speed-density
  relations) and `sim` (the time-stepped queue engine) with `controllers`
  on top;
- the lane game: `simplex` (two-phase LP engine) and `game` (max-min /
  min-max strategies with a closed-form oracle);
- the adversarial loop: `attack` (phantom injection plans), `mitigation`
  (trust-weighted perception filtering), `metrics` and `scenario` for
  experiments, plus a `cli`.
"""

from .attack import AttackPlan, inject, plan_greedy_attack, plan_optimal_attack
from .controllers import (
    FixedTimeController,
    GapActuatedController,
    PressureController,
    build_controller,
)
from .game import (
    DualityGapError,
    GameSolution,
    GameSolverError,
    MixedStrategy,
    build_payoff_matrix,
    diagonal_closed_form,
    solve_game,
    solve_maxmin,
    solve_minimax,
)
from .metrics import (
    ScenarioReport,
    improvement,
    mean_time_loss,
    mean_trip_waiting_time,
    time_loss,
)
from .mitigation import (
    MitigationPolicy,
    beta_to_weights,
    fair_policy,
    filter_perception,
    none_policy,
    optimal_policy,
)
from .networks import grid, three_junction_reference
from .scenario import (
    ScenarioConfig,
    ScenarioError,
    parse_scenario,
    run_suite,
)
from .sim import (
    PerceivedObservation,
    SimConfig,
    SimResult,
    VehicleRecord,
    World,
    run,
)
from .simplex import (
    LPError,
    LPInfeasibleError,
    LPPivotLimitError,
    LPResult,
    LPUnboundedError,
    solve_lp,
)
from .traffic_model import (
    FundamentalDiagramParams,
    Junction,
    Lane,
    Network,
    SignalPhase,
    critical_density,
    flow_at_density,
    headroom,
    max_flow,
    speed_at_density,
    validate_network,
)

__version__ = "0.1.0"
