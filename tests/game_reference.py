"""Two earlier forms of sybil_atsc.game's lane-game LPs.

`game_lp` builds the shifted, dense LP that the normalised LPs replaced:
every payoff entry is shifted positive, the matrix diag(u) + shift is
dense, and the game value is an LP variable.  `solve_side` and `_cleanup`
are the earlier `_solve_side` and its cleanup, unchanged but for building
the LP with `game_lp`.  test_game.py requires the package's strategies to
match these, bit for bit on games with a zero impact and within a
tolerance otherwise; test_simplex.py pins solve_lp's output on these LPs
in its golden digests.

`solve_side_full` is the package's `_solve_side` with one constraint row
per lane, as it was before it kept one row per distinct impact, on the
impacts scaled by the largest one's power of two, as the package scales
them.  test_game.py requires the package to match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from sybil_atsc.game import GameSolverError, MixedStrategy, _impacts, _uniform
from sybil_atsc.simplex import LPError, solve_lp


def _shift(u: np.ndarray) -> float:
    """What game_lp adds to every payoff entry: one more than |min(U)|."""
    return 1.0 + abs(float(np.diag(u).min()))


def game_lp(u, *, maximize: bool) -> dict:
    """The shifted game LP for impacts u, as solve_lp's keyword arguments.

    Variables are the mix over the d lanes, then the game value.
    """
    d = len(u)
    shifted = np.diag(u) + _shift(u)  # the LP's payoff matrix U, symmetric
    c = np.zeros(d + 1)
    c[d] = 1.0
    col = np.ones((d, 1))
    # attacker: rho - (U alpha)_i <= 0; defender: (U beta)_j - phi <= 0
    a_ub = np.hstack([-shifted, col]) if maximize else np.hstack([shifted, -col])
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = 1.0
    return dict(
        c=c, a_ub=a_ub, b_ub=np.zeros(d), a_eq=a_eq, b_eq=np.ones(1), maximize=maximize
    )


def _cleanup(raw: np.ndarray) -> MixedStrategy:
    vec = np.clip(raw, 0.0, None)
    total = vec.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise GameSolverError(f"LP returned an unusable strategy vector (sum {total})")
    return MixedStrategy(probs=tuple(float(p) for p in vec / total))


def solve_side(u, *, maximize: bool) -> tuple[MixedStrategy, float]:
    """One player's LP; maximize is the attacker's max-min side."""
    u = _impacts(u)
    d = u.size
    if not u.any():
        return _uniform(d), 0.0  # every mix is optimal; uniform is the tie-break
    try:
        res = solve_lp(**game_lp(u, maximize=maximize))
    except LPError as exc:
        side = "max-min" if maximize else "min-max"
        raise GameSolverError(f"{side} LP failed: {exc}") from exc
    return _cleanup(res.x[:d]), float(res.x[d] - _shift(u))


def solve_side_full(u, *, maximize: bool) -> tuple[MixedStrategy, float]:
    """One player's normalised LP with one constraint row per lane."""
    u = _impacts(u)
    d = u.size
    (zeros,) = (u == 0.0).nonzero()
    if zeros.size == d:
        return _uniform(d), 0.0
    if zeros.size:
        probs = [0.0] * d
        probs[0 if maximize else zeros[0]] = 1.0
        return MixedStrategy(probs=tuple(probs)), 0.0
    mantissas, exponents = np.frexp(u)
    top = exponents.max()  # solved on u / 2**top, as the package solves it
    side = "max-min" if maximize else "min-max"
    try:
        with np.errstate(over="raise"):
            bounds = np.ldexp(1.0, top - exponents)
            if maximize:  # min sum(x)  s.t.  u_i x_i >= 1
                res = solve_lp(np.ones(d), -np.diag(mantissas), -bounds)
            else:  # max sum(y)  s.t.  u_j y_j <= 1
                res = solve_lp(np.ones(d), np.diag(mantissas), bounds, maximize=True)
            total = res.x.sum()
            value = np.ldexp(1.0 / total, top)
    except (LPError, FloatingPointError) as exc:
        raise GameSolverError(f"{side} LP failed: {exc}") from exc
    if not (np.isfinite(total) and total > 0.0):
        raise GameSolverError(f"{side} LP returned an unusable vector (sum {total})")
    return MixedStrategy(probs=tuple((res.x / total).tolist())), float(value)
