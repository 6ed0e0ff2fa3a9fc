"""Zero-sum game between a flow-inflating attacker and a
perception-weighting defender, solved exactly with linear programming.

Both players mix over the same D lanes.  The payoff matrix is diagonal:
entry (i, i) is the unused flow capacity of lane i, the room available for
phantom traffic there, and off-diagonal entries are zero because an attack
on a lane the defender ignores has no effect.  The game is therefore
carried as its diagonal, the impact vector u; only the LP builder expands
it to a matrix.  The attacker's max-min program and the defender's min-max
program are each other's LP duals, so their optimal values must agree;
``GameSolution`` checks that equality and refuses to hold silently
inconsistent strategies.
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
    "apply_impact_floor",
    "diagonal_closed_form",
]

_STRATEGY_TOL = 1e-9
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

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


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


def _cleanup(raw: np.ndarray) -> MixedStrategy:
    vec = np.clip(raw, 0.0, None)
    total = vec.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise GameSolverError(f"LP returned an unusable strategy vector (sum {total})")
    return MixedStrategy(probs=tuple(float(p) for p in vec / total))


def _solve_side(u, *, maximize: bool) -> tuple[MixedStrategy, float]:
    """One player's LP; see solve_maxmin (maximize) and solve_minimax."""
    u = _impacts(u)
    d = u.size
    if not u.any():
        return _uniform(d), 0.0  # every mix is optimal; uniform is the tie-break
    mat = np.diag(u)  # the LP's payoff matrix U, symmetric
    shift = 1.0 + abs(float(mat.min()))
    shifted = mat + shift
    # variables: the mix over d lanes, then the game value
    c = np.zeros(d + 1)
    c[d] = 1.0
    if maximize:  # rho - (U alpha)_i <= 0
        a_ub = np.hstack([-shifted, np.ones((d, 1))])
    else:  # (U beta)_j - phi <= 0
        a_ub = np.hstack([shifted, -np.ones((d, 1))])
    b_ub = np.zeros(d)
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = 1.0
    b_eq = np.ones(1)
    try:
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    except LPError as exc:
        side = "max-min" if maximize else "min-max"
        raise GameSolverError(f"{side} LP failed: {exc}") from exc
    return _cleanup(res.x[:d]), float(res.x[d] - shift)


def solve_maxmin(u) -> tuple[MixedStrategy, float]:
    """Attacker side: the mix over lanes maximising the worst-lane payoff.

    Solved as the LP  max rho  s.t.  u_i alpha_i >= rho for every lane i,
    sum(alpha) = 1, alpha >= 0, after shifting all payoff entries positive
    so the rho variable can live in the nonnegative orthant.
    """
    return _solve_side(u, maximize=True)


def solve_minimax(u) -> tuple[MixedStrategy, float]:
    """Defender side: the mix over lanes minimising the worst-lane exposure.

    Solved as the LP  min phi  s.t.  u_j beta_j <= phi for every lane j,
    sum(beta) = 1, beta >= 0, with the same positivity shift as the max-min
    side.
    """
    return _solve_side(u, maximize=False)


def apply_impact_floor(u, ratio: float) -> np.ndarray:
    """The impacts raised to max(u_i, ratio * max(u)); ratio 0 is no floor.

    Without a floor a zero-impact lane soaks up all defensive confidence,
    which is the game as written, but rarely what an operator wants.
    """
    u = _impacts(u)
    return np.maximum(u, ratio * float(u.max()))


def solve_game(u, *, impact_floor_ratio: float = 0.0) -> GameSolution:
    """Run both LPs; the returned GameSolution certifies their values agree.

    impact_floor_ratio applies apply_impact_floor before solving; 0, the
    default, leaves the game as written.
    """
    u = apply_impact_floor(u, impact_floor_ratio)
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
    uniform.  The LP instead picks a vertex, the first zero-impact lane.
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
