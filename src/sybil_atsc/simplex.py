"""Two-phase primal simplex for dense linear programs.

The tableau is the full one (Chvatal, Linear Programming, 1983, ch. 2-3):
one row per constraint, and a column for every structural, slack and
artificial variable, then the right-hand side.  The entering column is the
lowest-indexed one whose reduced cost improves, and the ratio test is a
sequential scan whose ties go to the smallest basic variable: Bland's rule,
so the iteration cannot cycle on degenerate vertices; that costs extra
pivots and buys guaranteed termination.  Infeasible, unbounded and
pivot-limit outcomes raise distinct `LPError`s, never an approximate
answer, and a constraint matrix without one column per entry of c raises
ValueError.

A pivot writes only the rows with a nonzero entry in the pivot column, in
one update of whole rows, so the rows it leaves alone keep every bit.  A
lane game (sybil_atsc.game) is a normalised LP with one row per distinct
impact, k of 1 to 13 on the 10x10 grid's 400-lane games, so its tableaux
stay small.  Two golden digests in tests/test_simplex.py pin the solver's
output bytes, and a property there checks its outcomes and objectives
against scipy's HiGHS on random programs.
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

# eliminations round, so a pivot entry, reduced cost or ratio gap within this of 0 is taken as 0
_TOL = 1e-9
# rounding can leave a feasible program this phase-1 residual, and each row this relative miss
_FEASIBILITY_TOL = 1e-7


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


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} has a non-finite entry")


def _constraints(name: str, a, b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """a and b as finite float arrays, checked to hold n columns and one b per row."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"a_{name} has shape {a.shape} for c of shape ({n},)")
    if b.shape != a.shape[:1]:
        raise ValueError(f"b_{name} has {b.size} entries for {a.shape[0]} rows")
    _check_finite(f"a_{name}", a)
    _check_finite(f"b_{name}", b)
    return a, b


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
    answer silently: an x that misses a row by more than _FEASIBILITY_TOL,
    relative to the larger of 1, |b| and |a| |x|, raises LPError naming the
    row.  A c that is not a vector, a matrix without one column per entry
    of c, a right-hand side whose length differs from its matrix's row
    count, or a NaN or infinite entry in any argument raises ValueError.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"c must be a vector, got shape {c.shape}")
    n = c.shape[0]
    obj = -c if maximize else c.copy()

    empty = (np.zeros((0, n)), np.zeros(0))
    ub = empty if a_ub is None else _constraints("ub", a_ub, b_ub, n)
    eq = empty if a_eq is None else _constraints("eq", a_eq, b_eq, n)
    _check_finite("c", c)
    n_ub = ub[0].shape[0]
    m = n_ub + eq[0].shape[0]

    # Columns: n structural, n_ub slacks (+1 in their row), then one
    # artificial per row that needs one, then the right-hand side.  Rows are
    # normalised to b >= 0 first, by one exact multiply with a +-1.0 sign
    # per row; a negated row's slack has -1, so it starts outside the basis
    # and the row gets an artificial, as does every equality row.
    a = np.concatenate([ub[0], eq[0]])
    b = np.concatenate([ub[1], eq[1]])
    sign = np.where(b < 0.0, -1.0, 1.0)
    (need_artificial,) = ((sign < 0.0) | (np.arange(m) >= n_ub)).nonzero()
    n_art = need_artificial.size
    n_real = n + n_ub  # artificials are forbidden once phase 1 ends
    total = n_real + n_art
    tableau = np.zeros((m, total + 1))
    tableau[:, :n] = a
    tableau[np.arange(n_ub), n + np.arange(n_ub)] = 1.0
    tableau[:, -1] = b
    tableau *= sign[:, None]
    tableau[need_artificial, n_real + np.arange(n_art)] = 1.0
    basis = n + np.arange(m)  # each row's slack, then artificials where needed
    basis[need_artificial] = n_real + np.arange(n_art)

    pivots_left = max_pivots

    def run_simplex(cost: np.ndarray) -> None:
        # cost: length `total` vector to minimise; maintains `tableau`/`basis`.
        # The initial reduced costs are summed row by row: that order sets
        # their bits.
        nonlocal pivots_left
        red = cost.copy()
        for i in range(m):
            if abs(cost[basis[i]]) > 0.0:
                red -= cost[basis[i]] * tableau[i, :total]
        while True:
            (improving,) = (red < -_TOL).nonzero()
            if improving.size == 0:
                return
            enter = int(improving[0])  # Bland: the lowest improving column
            column = tableau[:, enter]
            (rows,) = (column > _TOL).nonzero()
            leave = _leaving_row(rows, tableau[rows, -1] / column[rows], basis)
            if leave < 0:
                raise LPUnboundedError("objective improves without bound")
            if pivots_left <= 0:
                raise LPPivotLimitError(f"pivot limit {max_pivots} exceeded")
            pivots_left -= 1
            _pivot(tableau, leave, enter)
            red -= red[enter] * tableau[leave, :total]
            basis[leave] = enter

    if n_art:
        phase1 = np.zeros(total)
        phase1[n_real:] = 1.0
        run_simplex(phase1)
        infeas = sum(tableau[i, -1] for i in range(m) if basis[i] >= n_real)
        if infeas > _FEASIBILITY_TOL:
            raise LPInfeasibleError(f"no feasible point (residual {infeas:.3e})")
        # Drive any zero-valued artificials out of the basis, entering the
        # lowest real variable with a nonzero entry in the row.
        for i in range(m):
            if basis[i] >= n_real:
                (usable,) = (np.abs(tableau[i, :n_real]) > _TOL).nonzero()
                if usable.size == 0:
                    continue  # redundant row; harmless to leave in place
                _pivot(tableau, i, int(usable[0]))
                basis[i] = usable[0]
        # Forbid artificials from re-entering.
        tableau[:, n_real:total] = 0.0

    phase2 = np.zeros(total)
    phase2[:n] = obj
    run_simplex(phase2)

    x = np.zeros(total)
    x[basis] = tableau[:, -1]
    solution = x[:n]
    _check_rows(a, b, n_ub, solution)
    return LPResult(x=solution, objective=float(c @ solution))


def _check_rows(a: np.ndarray, b: np.ndarray, n_ub: int, x: np.ndarray) -> None:
    """Raise LPError unless x meets every row, the first n_ub of them
    inequalities, to _FEASIBILITY_TOL relative to the larger of 1, |b| and
    |a| |x|: a pivot on an entry that is rounding noise can leave an x that
    breaks its rows, and only a relative miss is scale-free."""
    miss = a @ x - b
    if np.abs(miss).max(initial=0.0) <= _FEASIBILITY_TOL:  # no scale is below 1
        return
    miss /= np.maximum(np.maximum(1.0, np.abs(b)), np.abs(a) @ np.abs(x))
    miss[n_ub:] = np.abs(miss[n_ub:])
    worst = int(np.argmax(miss))
    if not miss[worst] <= _FEASIBILITY_TOL:
        row = f"a_ub row {worst}" if worst < n_ub else f"a_eq row {worst - n_ub}"
        raise LPError(f"x misses {row} by {miss[worst]:.3e} of its scale")


def _leaving_row(rows: np.ndarray, ratios: np.ndarray, basis: np.ndarray) -> int:
    """Bland's ratio test: the row of the smallest ratio, ties within _TOL
    going to the smallest basic variable; -1 if no row bounds the step.

    The scan is sequential and the best ratio moves as it goes, so which of
    several rows within _TOL of each other wins depends on their order.
    """
    leave = leave_var = -1
    best = np.inf
    for i, ratio, var in zip(rows.tolist(), ratios.tolist(), basis[rows].tolist()):
        if ratio < best - _TOL or (
            ratio < best + _TOL and (leave < 0 or var < leave_var)
        ):
            best = ratio
            leave = i
            leave_var = var
    return leave


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Divide `row` by its entry in `col`, then clear `col` from the other rows.

    Row i becomes tableau[i] - f_i * tableau[row] with f_i = tableau[i, col],
    elementwise, the same IEEE operations a loop over rows would do.  Only
    the rows with f_i != 0 are written, in one update over the rows from the
    first to the last of them, so the rows with a zero factor keep every
    bit, signed zeros included, and a column with one nonzero costs O(1) rows.
    """
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col, None].copy()
    factors[row] = 0.0
    rows = np.flatnonzero(factors)
    if rows.size:
        span = slice(rows[0], rows[-1] + 1)
        block, factors = tableau[span], factors[span]
        np.subtract(block, factors * pivot_row, out=block, where=factors != 0.0)
