"""Zero-sum game between a flow-inflating attacker and a
perception-weighting defender, solved exactly with linear programming.

Both players mix over the same D lanes.  The payoff matrix is diagonal:
entry (i, i) is the unused flow capacity of lane i, the room available for
phantom traffic there, and off-diagonal entries are zero because an attack
on a lane the defender ignores has no effect.  The game is therefore
carried as its diagonal, the impact vector u, which `build_payoff_matrix`
returns.  Each function of u checks that it is a non-empty, finite,
non-negative vector and raises ValueError otherwise.  With every impact
positive, each player solves the textbook normalised LP of a positive
matrix game (Chvatal, Linear Programming, 1983, ch. 15), whose constraint
matrix is diag(u) itself: the attacker min sum(x) s.t. u_i x_i >= 1, the
defender max sum(y) s.t. u_j y_j <= 1, each over x, y >= 0.  The mixes are
x/sum(x) and y/sum(y), and the values 1/sum(x) and 1/sum(y).

Lanes of equal impact share one constraint row: the LP is solved over the
k distinct impacts, one nonzero per row, so each simplex pivot costs O(k),
and its solution is copied back to the D lanes.  A 10x10 grid game has
400 lanes but 1 to 13 distinct impacts (seeds 0, 1, 2, 10 and 11), since
every lane has the same capacity and flows are windowed entry counts over
300 s.  No bit moves.
Every column of the diagonal LP's tableau, structural, slack or
artificial, has its one nonzero in its own row, so a pivot writes only
that row and the reduced costs, and whether a column enters depends on
that row alone.  So x_i is 2**-e_i / m_i from the frexp parts of u_i
alone, in the attacker's phase 1 and the defender's single phase alike,
and the sum and the divisions that follow run over the same D-vector as
before.  Only at the edge of the float range can the two forms part: when
sum(x) lies within a few ulps of the float max, the LP's own objective
row, a sum in another order, may overflow in one form and not the other.
On a shared 2-core Xeon with Python 3.11, a grid game side solves in about
0.6 ms (attacker) and 0.45 ms (defender), against 12 and 8 ms with a row
per lane (medians over the 15 games that a filtered game attack on the grid
solves at seeds 0-2).

A game's mixes do not depend on the scale of u (Chvatal, ch. 15), and
scaling by a power of two is exact, so both LPs are solved on u / 2**top,
top the frexp exponent of the largest impact, and the value is scaled back
by 2**top.  The largest scaled impact lies in [0.5, 1), so x_i and their
sum overflow, and the solve raises `GameSolverError`, only when the
impacts span more than the float range (the largest over the smallest
past about 2**1024); a game of subnormal or of near-maximal impacts
solves.

With a zero impact the value is 0, and the mixes are the vertices a Bland
simplex reaches: all weight on lane 0 for the attacker, on the first
zero-impact lane for the defender, and uniform for both when every impact
is zero.

The attacker's program and the defender's are each other's LP duals, so
their optimal values must agree: `solve_game` runs both and returns a
``GameSolution``, which checks that equality and refuses to hold silently
inconsistent strategies.  `diagonal_closed_form` is an independent oracle
(probabilities proportional to 1/u_i) that validates the LP path.
`tests/game_reference.py` keeps two earlier forms of the LPs: the one with
a row per lane, which a property test matches bit for bit, and the shifted
dense LP, which tier-1 tests compare with the runtime LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import LPError, solve_lp

__all__ = [
    "MixedStrategy",
    "GameSolution",
    "DualityGapError",
    "GameSolverError",
    "build_payoff_matrix",
    "solve_maxmin",
    "solve_minimax",
    "solve_game",
    "diagonal_closed_form",
]

# a mix x / sum(x) can sum a few ulps off 1 and hold an entry a few ulps below 0
_STRATEGY_TOL = 1e-9
# the two LPs reach their values through their own roundings, so they agree only to rounding
_DUALITY_TOL = 1e-8


class GameSolverError(Exception):
    """The underlying LP failed; the game has no trustworthy solution."""


class DualityGapError(GameSolverError):
    """Max-min and min-max values disagree beyond tolerance: solver bug."""


@dataclass(frozen=True)
class MixedStrategy:
    """A probability vector over lanes."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) < 1:
            raise ValueError("strategy needs at least one entry")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError(f"non-finite probability in {self.probs}")
        if min(self.probs) < -_STRATEGY_TOL:
            raise ValueError(f"negative probability in {self.probs}")
        if abs(sum(self.probs) - 1.0) > _STRATEGY_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class GameSolution:
    """Both mixed strategies plus the (equal) optimal values."""

    attacker: MixedStrategy
    defender: MixedStrategy
    attacker_value: float
    defender_value: float

    def __post_init__(self) -> None:
        # NaN would pass the gap test below: every comparison with it is false
        for name in ("attacker_value", "defender_value"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        gap = abs(self.attacker_value - self.defender_value)
        if gap > _DUALITY_TOL * max(1.0, abs(self.attacker_value)):
            raise DualityGapError(
                f"max-min value {self.attacker_value!r} and min-max value "
                f"{self.defender_value!r} disagree by {gap:.3e}"
            )

    @property
    def value(self) -> float:
        return self.attacker_value


def build_payoff_matrix(theta, f) -> np.ndarray:
    """Per-lane impacts u_i = max(0, theta_i - f_i), the payoff diagonal.

    theta is the capacity of each lane, f the flow it currently carries;
    their difference is what an attacker could inject unnoticed.  Negative
    differences (oversaturated measurements) clamp to zero.
    """
    theta = np.asarray(theta, dtype=float)
    f = np.asarray(f, dtype=float)
    if theta.shape != f.shape or theta.ndim != 1 or theta.size < 1:
        raise ValueError(
            f"theta and f must be equal-length vectors, got {theta.shape} vs {f.shape}"
        )
    return np.clip(theta - f, 0.0, None)


def _impacts(u) -> np.ndarray:
    """u as a float vector, checked to be a non-empty, finite, >= 0 game."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError(f"impacts must be a non-empty vector, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError(f"impacts must be finite, got {u.tolist()}")
    if np.any(u < 0.0):
        raise ValueError(f"impacts must be >= 0, got {u.tolist()}")
    return u


def _uniform(d: int) -> MixedStrategy:
    return MixedStrategy(probs=tuple([1.0 / d] * d))


def _solve_side(u, *, maximize: bool) -> tuple[MixedStrategy, float]:
    """One player's normalised LP; see solve_maxmin (maximize) and solve_minimax."""
    u = _impacts(u)
    d = u.size
    (zeros,) = (u == 0.0).nonzero()
    if zeros.size == d:
        return _uniform(d), 0.0  # every mix is optimal; uniform is the tie-break
    if zeros.size:
        # The normalised LPs have no optimum (the attacker's is infeasible,
        # the defender's unbounded), and the value is 0: every attacker mix
        # attains it, and every defender mix over the zero-impact lanes.
        # The vertices kept are lane 0 and the first zero-impact lane.
        probs = [0.0] * d
        probs[0 if maximize else zeros[0]] = 1.0
        return MixedStrategy(probs=tuple(probs)), 0.0
    # One constraint row per distinct impact (see the module docstring).
    values, lane_value = np.unique(u, return_inverse=True)
    k = values.size
    # The game is solved on u / 2**top, top the exponent of the largest
    # impact, which then lies in [0.5, 1); the mixes do not depend on the
    # scale, and the value is scaled back by 2**top.  Row i of
    # diag(values / 2**top) is then divided by the power of two in its
    # value, an exact scaling that puts every pivot in [0.5, 1) and leaves
    # x's bits as they are, so the simplex's absolute tolerance sees even
    # the smallest impact.  Both scalings are taken from the frexp exponents
    # alone, so neither rounds.
    mantissas, exponents = np.frexp(values)
    top = exponents[-1]
    side = "max-min" if maximize else "min-max"
    try:
        with np.errstate(over="raise"):  # impacts spanning more than the float range
            bounds = np.ldexp(1.0, top - exponents)
            if maximize:  # min sum(x)  s.t.  u_i x_i >= 1
                res = solve_lp(np.ones(k), -np.diag(mantissas), -bounds)
            else:  # max sum(y)  s.t.  u_j y_j <= 1
                res = solve_lp(np.ones(k), np.diag(mantissas), bounds, maximize=True)
            x = res.x[lane_value]
            total = x.sum()
            value = np.ldexp(1.0 / total, top)
    except (LPError, FloatingPointError) as exc:
        raise GameSolverError(f"{side} LP failed: {exc}") from exc
    if not (np.isfinite(total) and total > 0.0):
        raise GameSolverError(f"{side} LP returned an unusable vector (sum {total})")
    return MixedStrategy(probs=tuple((x / total).tolist())), float(value)


def solve_maxmin(u) -> tuple[MixedStrategy, float]:
    """Attacker side: the mix over lanes maximising the worst-lane payoff.

    Solved as the normalised LP  min sum(x)  s.t.  u_i x_i >= 1 for every
    lane i, x >= 0, whose constraint matrix is diag(u); then alpha =
    x / sum(x) and the value rho = 1 / sum(x) (Chvatal, Linear
    Programming, 1983, ch. 15).  With a zero impact that LP is infeasible:
    the value is 0 and alpha puts all weight on lane 0, or is uniform when
    every impact is zero.
    """
    return _solve_side(u, maximize=True)


def solve_minimax(u) -> tuple[MixedStrategy, float]:
    """Defender side: the mix over lanes minimising the worst-lane exposure.

    Solved as the normalised LP  max sum(y)  s.t.  u_j y_j <= 1 for every
    lane j, y >= 0; then beta = y / sum(y) and the value phi = 1 / sum(y).
    With a zero impact that LP is unbounded: the value is 0 and beta puts
    all weight on the first zero-impact lane, or is uniform when every
    impact is zero.
    """
    return _solve_side(u, maximize=False)


def solve_game(u) -> GameSolution:
    """Run both LPs; the returned GameSolution certifies their values agree."""
    alpha, rho = solve_maxmin(u)
    beta, phi = solve_minimax(u)
    return GameSolution(
        attacker=alpha, defender=beta, attacker_value=rho, defender_value=phi
    )


def diagonal_closed_form(u) -> GameSolution:
    """Exact solution of the diagonal game, independent of the LP path.

    With all impacts positive, equalising u_i * p_i across lanes forces
    p_i proportional to 1/u_i on both sides and a value of 1/sum(1/u_i).
    Any zero-impact lane drops the value to 0: the defender hides all
    confidence on zero-impact lanes, spread evenly over them, and the
    attacker has nothing to gain anywhere, so its canonical strategy is
    uniform.  The LPs instead keep vertices: lane 0 for the attacker, the
    first zero-impact lane for the defender.
    """
    u = _impacts(u)
    d = u.size
    if np.any(u == 0.0):
        zeros = u == 0.0
        beta = np.where(zeros, 1.0 / zeros.sum(), 0.0)
        return GameSolution(
            attacker=_uniform(d),
            defender=MixedStrategy(probs=tuple(float(b) for b in beta)),
            attacker_value=0.0,
            defender_value=0.0,
        )
    inv = 1.0 / u
    value = 1.0 / inv.sum()
    probs = tuple(float(p) for p in inv * value)
    return GameSolution(
        attacker=MixedStrategy(probs=probs),
        defender=MixedStrategy(probs=probs),
        attacker_value=value,
        defender_value=value,
    )
