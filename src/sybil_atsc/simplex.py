"""Two-phase primal simplex for dense linear programs.

Entering and leaving variables are chosen with Bland's smallest-index rule,
so the iteration cannot cycle on degenerate vertices; that costs extra
pivots and buys guaranteed termination.  The ratio test is a plain
sequential Bland scan.  Infeasible, unbounded and pivot-limit outcomes
raise distinct `LPError`s, never an approximate answer, and a constraint
matrix without one column per entry of c raises ValueError.

The tableau is condensed: every basic column is a unit vector, so it
stores only the nonbasic columns and the right-hand side (Chvatal, Linear
Programming, 1983, ch. 2-3), plus the reduced costs as its last row.  A
lane game (sybil_atsc.game) is a normalised LP with one constraint row per
distinct impact: k rows over k + 1 condensed columns for the defender and
2k + 1 for the attacker, whose negated rows keep their slacks (2k + 1 and
3k + 1 in the full tableau), solved in k pivots, where the 10x10 grid's
400-lane games have k of 1 to 13.  Rows with a negative right-hand side
are negated as they are copied in, by one multiply with a +-1.0 sign per
row, which is exact.  A pivot writes only the rows with a nonzero entry in
the pivot column, in one update of whole rows; in a game's pivot column
that is the reduced-cost row alone, so its pivots cost O(k).  Each row
written gets the same IEEE operations as in the full tableau, and the rows
not written keep every bit; only the signs of zeros outside the right-hand
side can differ, and no decision reads them, so for finite data every
pivot and every output bit is what the full tableau gives.
`tests/simplex_reference.py` keeps that full-tableau solver: a
differential test requires the same output bytes from both, and two golden
digests pin them.
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
    answer silently.  A c that is not a vector, a matrix without one column
    per entry of c, a right-hand side whose length differs from its
    matrix's row count, or a NaN or infinite entry in any argument raises
    ValueError.
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
    if m == 0:
        # No constraints at all: optimum is 0 iff no profitable direction.
        if np.any(obj < -_TOL):
            raise LPUnboundedError("objective improves without bound")
        x = np.zeros(n)
        return LPResult(x=x, objective=float(c @ x))

    # Variables: n structural, n_ub slacks (+1 in their row), then one
    # artificial per row that needs one.  Rows are normalised to b >= 0
    # first; a negated row's slack has -1, so it starts outside the basis
    # and the row gets an artificial.  The condensed tableau's columns are
    # the structural variables, those slacks, then the right-hand side; its
    # rows are the constraints, then the reduced costs of the columns.
    b = np.concatenate([ub[1], eq[1]])
    sign = np.where(b < 0.0, -1.0, 1.0)
    (negated,) = (sign < 0.0).nonzero()
    neg_slacks = negated[negated < n_ub]
    tableau = np.zeros((m + 1, n + neg_slacks.size + 1))
    np.multiply(ub[0], sign[:n_ub, None], out=tableau[:n_ub, :n])
    np.multiply(eq[0], sign[n_ub:, None], out=tableau[n_ub:m, :n])
    tableau[neg_slacks, n + np.arange(neg_slacks.size)] = -1.0
    np.multiply(b, sign, out=tableau[:m, -1])
    red = tableau[m, :-1]

    basis = np.full(m, -1, dtype=int)
    basis[:n_ub] = n + np.arange(n_ub)
    need_artificial = np.concatenate([neg_slacks, np.arange(n_ub, m)])
    n_art = need_artificial.size
    basis[need_artificial] = n + n_ub + np.arange(n_art)
    total = n + n_ub + n_art
    cols = np.concatenate([np.arange(n), n + neg_slacks])  # variable per column
    n_real = n + n_ub  # artificials are forbidden once phase 1 ends

    pivots_left = [max_pivots]

    def swap(row: int, col: int, *, unit: bool) -> None:
        # Pivot cols[col] into the basis at `row`; the variable that leaves
        # takes over the column.
        entering = cols[col]
        cols[col] = basis[row]
        basis[row] = entering
        _pivot(tableau, row, col, unit=unit)

    def run_simplex(cost: np.ndarray, *, art_live: bool) -> None:
        # cost: length `total` vector to minimise; maintains `tableau`/`basis`.
        # The initial reduced costs are summed row by row: that order sets
        # their bits.  Each pivot then updates them as the tableau's last row.
        red[:] = cost[cols]
        for i in range(m):
            if abs(cost[basis[i]]) > 0.0:
                red[:] -= cost[basis[i]] * tableau[i, :-1]
        while True:
            (improving,) = (red < -_TOL).nonzero()
            if improving.size == 0:
                return
            col = int(improving[cols[improving].argmin()])  # Bland: lowest variable
            column = tableau[:m, col]
            (rows,) = (column > _TOL).nonzero()
            leave = _leaving_row(rows, tableau[rows, -1] / column[rows], basis)
            if leave < 0:
                raise LPUnboundedError("objective improves without bound")
            if pivots_left[0] <= 0:
                raise LPPivotLimitError(f"pivot limit {max_pivots} exceeded")
            pivots_left[0] -= 1
            swap(leave, col, unit=art_live or basis[leave] < n_real)

    if n_art:
        phase1 = np.zeros(total)
        phase1[n_real:] = 1.0
        run_simplex(phase1, art_live=True)
        infeas = sum(tableau[i, -1] for i in range(m) if basis[i] >= n_real)
        if infeas > 1e-7:
            raise LPInfeasibleError(f"no feasible point (residual {infeas:.3e})")
        # Drive any zero-valued artificials out of the basis, entering the
        # lowest real variable with a nonzero entry in the row.
        for i in range(m):
            if basis[i] >= n_real:
                real = cols < n_real
                (usable,) = (real & (np.abs(tableau[i, :-1]) > _TOL)).nonzero()
                if usable.size == 0:
                    continue  # redundant row; harmless to leave in place
                swap(i, int(usable[cols[usable].argmin()]), unit=False)
        # Forbid artificials from re-entering.
        tableau[:m, :-1][:, cols >= n_real] = 0.0

    phase2 = np.zeros(total)
    phase2[:n] = obj
    run_simplex(phase2, art_live=False)

    x = np.zeros(total)
    x[basis] = tableau[:m, -1]
    solution = x[:n]
    return LPResult(x=solution, objective=float(c @ solution))


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


def _pivot(tableau: np.ndarray, row: int, col: int, *, unit: bool) -> None:
    """Pivot on (row, col) of a condensed tableau.

    Column `col` leaves with its entries as the factors f_i; the leaving
    basic variable's column takes its place, 1.0 at `row` if `unit` and 0.0
    elsewhere (all 0.0 for a forbidden artificial).  Then `row` is scaled to
    a unit pivot and each row i with f_i != 0 becomes
    tableau[i] - f_i * tableau[row], elementwise, the same IEEE operations a
    loop over rows would do.

    Only the rows with a nonzero factor are written, in one update of whole
    rows.  The pivot row and the rows with f_i == 0 are not touched, so
    their right-hand sides keep every bit.
    """
    factors = tableau[:, col].copy()
    tableau[:, col] = 0.0
    if unit:
        tableau[row, col] = 1.0
    pivot_row = tableau[row]
    pivot_row /= factors[row]
    factors[row] = 0.0
    (rows,) = factors.nonzero()
    tableau[rows] -= factors[rows, None] * pivot_row
