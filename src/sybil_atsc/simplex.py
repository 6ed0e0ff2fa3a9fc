"""Two-phase primal simplex for dense linear programs.

Entering and leaving variables are chosen with Bland's smallest-index rule,
so the iteration cannot cycle on degenerate vertices; that costs extra
pivots and buys guaranteed termination.  The lane games reach 401 x 803
tableaux that take about 400 pivots (the 10x10 grid, D = 400), so each
pivot is a few array operations over the tableau.  They apply the same IEEE
operations to each element as a loop over rows would, so every pivot and
every output bit is what the loop gives; only Bland's tie-break scan over
the tied ratios stays sequential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LPError",
    "LPInfeasibleError",
    "LPUnboundedError",
    "LPPivotLimitError",
    "LPResult",
    "solve_lp",
]

_TOL = 1e-9
_ROW_BLOCK = 64  # tableau rows per array update in _pivot


class LPError(Exception):
    """Base class for linear-program solver failures."""


class LPInfeasibleError(LPError):
    pass


class LPUnboundedError(LPError):
    pass


class LPPivotLimitError(LPError):
    pass


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    objective: float


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    *,
    maximize: bool = False,
    max_pivots: int = 10_000,
) -> LPResult:
    """Optimise c.x subject to a_ub x <= b_ub, a_eq x = b_eq and x >= 0.

    Minimises by default; pass maximize=True to flip the sense.  Returns an
    optimal basic feasible solution.  Raises LPInfeasibleError,
    LPUnboundedError or LPPivotLimitError; never returns an approximate
    answer silently.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    obj = -c if maximize else c.copy()

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    slack_rows: list[int] = []  # row index -> has a +/-1 slack column
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        for i in range(a_ub.shape[0]):
            rows.append(a_ub[i])
            rhs.append(float(b_ub[i]))
            slack_rows.append(len(rows) - 1)
    n_ub = len(rows)
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        for i in range(a_eq.shape[0]):
            rows.append(a_eq[i])
            rhs.append(float(b_eq[i]))
    m = len(rows)
    if m == 0:
        # No constraints at all: optimum is 0 iff no profitable direction.
        if np.any(obj < -_TOL):
            raise LPUnboundedError("objective improves without bound")
        x = np.zeros(n)
        return LPResult(x=x, objective=float(c @ x))

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)

    # Columns: n structural, n_ub slacks, then one artificial per row as
    # needed.  Normalise to b >= 0 first.
    slack = np.zeros((m, n_ub))
    for j, row in enumerate(slack_rows):
        slack[row, j] = 1.0
    full = np.hstack([a, slack])
    for i in range(m):
        if b[i] < 0.0:
            full[i] *= -1.0
            b[i] *= -1.0

    # A slack column with coefficient +1 (b now >= 0) can start in the basis.
    basis = np.full(m, -1, dtype=int)
    for j, row in enumerate(slack_rows):
        if full[row, n + j] > 0.5:
            basis[row] = n + j
    need_artificial = [i for i in range(m) if basis[i] < 0]
    n_art = len(need_artificial)
    art = np.zeros((m, n_art))
    for j, row in enumerate(need_artificial):
        art[row, j] = 1.0
        basis[row] = n + n_ub + j
    tableau = np.hstack([full, art, b.reshape(-1, 1)])
    total = n + n_ub + n_art

    pivots_left = [max_pivots]

    def run_simplex(cost: np.ndarray) -> None:
        # cost: length `total` vector to minimise; maintains `tableau`/`basis`.
        # The initial reduced costs are summed row by row: that order sets
        # their bits.
        red = cost.copy().astype(float)
        for i in range(m):
            if abs(cost[basis[i]]) > 0.0:
                red -= cost[basis[i]] * tableau[i, :total]
        while True:
            improving = np.flatnonzero(red < -_TOL)
            if improving.size == 0:
                return
            enter = int(improving[0])
            col = tableau[:, enter]
            rows = np.flatnonzero(col > _TOL)
            ratios = tableau[rows, -1] / col[rows]
            # Bland's tie-break is a sequential scan: "best" moves as it goes.
            leave = leave_var = -1
            best = np.inf
            for i, ratio, var in zip(
                rows.tolist(), ratios.tolist(), basis[rows].tolist()
            ):
                if ratio < best - _TOL or (
                    ratio < best + _TOL and (leave < 0 or var < leave_var)
                ):
                    best = ratio
                    leave = i
                    leave_var = var
            if leave < 0:
                raise LPUnboundedError("objective improves without bound")
            if pivots_left[0] <= 0:
                raise LPPivotLimitError(f"pivot limit {max_pivots} exceeded")
            pivots_left[0] -= 1
            _pivot(tableau, leave, enter)
            red -= red[enter] * tableau[leave, :total]
            basis[leave] = enter

    if n_art:
        phase1 = np.zeros(total)
        phase1[n + n_ub :] = 1.0
        run_simplex(phase1)
        infeas = sum(
            tableau[i, -1] for i in range(m) if basis[i] >= n + n_ub
        )
        if infeas > 1e-7:
            raise LPInfeasibleError(f"no feasible point (residual {infeas:.3e})")
        # Drive any zero-valued artificials out of the basis.
        for i in range(m):
            if basis[i] >= n + n_ub:
                nonzero = np.flatnonzero(np.abs(tableau[i, : n + n_ub]) > _TOL)
                if nonzero.size == 0:
                    continue  # redundant row; harmless to leave in place
                pivot_col = int(nonzero[0])
                _pivot(tableau, i, pivot_col)
                basis[i] = pivot_col
        # Forbid artificials from re-entering.
        tableau[:, n + n_ub : total] = 0.0

    phase2 = np.zeros(total)
    phase2[:n] = obj
    run_simplex(phase2)

    x = np.zeros(total)
    for i in range(m):
        x[basis[i]] = tableau[i, -1]
    solution = x[:n]
    return LPResult(x=solution, objective=float(c @ solution))


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Scale `row` to a unit pivot, then eliminate `col` from the other rows.

    Row i becomes tableau[i] - f_i * tableau[row] with f_i = tableau[i, col],
    elementwise, the same IEEE operations a loop over rows would do.  Rows
    with f_i == 0 are never written, so no signed zero in them can flip, and
    the update runs _ROW_BLOCK rows at a time to bound its temporaries.
    """
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    touched = np.abs(factors) > 0.0
    touched[row] = False
    for start in range(0, tableau.shape[0], _ROW_BLOCK):
        mask = touched[start : start + _ROW_BLOCK]
        if not mask.any():
            continue
        block = tableau[start : start + _ROW_BLOCK]
        update = factors[start : start + _ROW_BLOCK, None] * pivot_row
        if mask.all():
            block -= update
        else:
            np.subtract(block, update, out=block, where=mask[:, None])
