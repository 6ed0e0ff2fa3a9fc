"""Zero-sum matrix game between a flow-inflating attacker and a
perception-weighting defender, solved exactly with linear programming.

Both players mix over the same D lanes.  The payoff matrix is diagonal:
entry (i, i) is the unused flow capacity of lane i, the room available for
phantom traffic there, and off-diagonal entries are zero because an attack
on a lane the defender ignores has no effect.  The attacker's max-min
program and the defender's min-max program are each other's LP duals, so
their optimal values must agree; ``solve_game`` checks that equality and
refuses to return silently inconsistent strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import LPError, solve_lp

__all__ = [
    "PayoffMatrix",
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
        if min(self.probs) < -_STRATEGY_TOL:
            raise ValueError(f"negative probability in {self.probs}")
        if abs(sum(self.probs) - 1.0) > _STRATEGY_TOL:
            raise ValueError(f"probabilities sum to {sum(self.probs)}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


@dataclass(frozen=True, eq=False)
class PayoffMatrix:
    """Diagonal attacker-payoff matrix: entry (i, i) >= 0, rest exactly 0."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", ent)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1] or ent.shape[0] < 1:
            raise ValueError(f"payoff matrix must be square, got {ent.shape}")
        off = ent - np.diag(np.diag(ent))
        if np.any(off != 0.0):
            raise ValueError("off-diagonal payoff entries must be 0")
        if np.any(np.diag(ent) < 0.0):
            raise ValueError("diagonal payoff entries must be >= 0")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()


@dataclass(frozen=True)
class GameSolution:
    """Both mixed strategies plus the (equal) optimal values."""

    attacker: MixedStrategy
    defender: MixedStrategy
    attacker_value: float
    defender_value: float

    def __post_init__(self) -> None:
        gap = abs(self.attacker_value - self.defender_value)
        if gap > _DUALITY_TOL * max(1.0, abs(self.attacker_value)):
            raise ValueError(
                f"duality gap {gap:.3e} between {self.attacker_value} "
                f"and {self.defender_value}"
            )

    @property
    def value(self) -> float:
        return self.attacker_value


def build_payoff_matrix(theta, f) -> PayoffMatrix:
    """Diagonal matrix of per-lane impacts max(0, theta_i - f_i).

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
    return PayoffMatrix(entries=np.diag(np.clip(theta - f, 0.0, None)))


def _as_matrix(payoff) -> np.ndarray:
    if isinstance(payoff, PayoffMatrix):
        return payoff.entries
    mat = np.asarray(payoff, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"payoff must be a square matrix, got {mat.shape}")
    return mat


def _uniform(d: int) -> MixedStrategy:
    return MixedStrategy(probs=tuple([1.0 / d] * d))


def _cleanup(raw: np.ndarray) -> MixedStrategy:
    vec = np.clip(raw, 0.0, None)
    total = vec.sum()
    if total <= 0.0:
        raise GameSolverError("LP returned a zero strategy vector")
    return MixedStrategy(probs=tuple(float(p) for p in vec / total))


def _solve_side(payoff, *, maximize: bool, max_pivots: int) -> tuple[MixedStrategy, float]:
    """One player's LP; see solve_maxmin (maximize) and solve_minimax."""
    mat = _as_matrix(payoff)
    d = mat.shape[0]
    if np.all(mat == 0.0):
        return _uniform(d), 0.0  # every mix is optimal; uniform is the tie-break
    shift = 1.0 + abs(float(mat.min()))
    shifted = mat + shift
    # variables: the mix over d lanes, then the game value
    c = np.zeros(d + 1)
    c[d] = 1.0
    if maximize:  # rho - (U alpha)_i <= 0
        a_ub = np.hstack([-shifted, np.ones((d, 1))])
    else:  # (U^T beta)_j - phi <= 0
        a_ub = np.hstack([shifted.T, -np.ones((d, 1))])
    b_ub = np.zeros(d)
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = 1.0
    b_eq = np.ones(1)
    try:
        res = solve_lp(
            c, a_ub, b_ub, a_eq, b_eq, maximize=maximize, max_pivots=max_pivots
        )
    except LPError as exc:
        side = "max-min" if maximize else "min-max"
        raise GameSolverError(f"{side} LP failed: {exc}") from exc
    return _cleanup(res.x[:d]), float(res.x[d] - shift)


def solve_maxmin(payoff, *, max_pivots: int = 10_000) -> tuple[MixedStrategy, float]:
    """Attacker side: the mix over lanes maximising the worst-row payoff.

    Solved as the LP  max rho  s.t.  (U alpha)_i >= rho for every row i,
    sum(alpha) = 1, alpha >= 0, after shifting all entries positive so the
    rho variable can live in the nonnegative orthant.
    """
    return _solve_side(payoff, maximize=True, max_pivots=max_pivots)


def solve_minimax(payoff, *, max_pivots: int = 10_000) -> tuple[MixedStrategy, float]:
    """Defender side: the mix over lanes minimising the worst-column exposure.

    Solved as the LP  min phi  s.t.  (U^T beta)_j <= phi for every column j,
    sum(beta) = 1, beta >= 0, with the same positivity shift as the max-min
    side.
    """
    return _solve_side(payoff, maximize=False, max_pivots=max_pivots)


def apply_impact_floor(payoff, ratio: float | None) -> np.ndarray:
    """The payoff matrix with each diagonal impact u_i raised to
    max(u_i, ratio * max(u)); unchanged when ratio is None or <= 0.

    Without a floor a zero-impact lane soaks up all defensive confidence,
    which is the game as written, but rarely what an operator wants.
    """
    mat = _as_matrix(payoff)
    if ratio is None or ratio <= 0.0:
        return mat
    diag = np.diag(mat).copy()
    if np.any(mat != np.diag(diag)):
        raise ValueError("impact floor applies to diagonal games only")
    return np.diag(np.maximum(diag, ratio * float(diag.max())))


def solve_game(payoff, *, impact_floor_ratio: float | None = None) -> GameSolution:
    """Run both LPs and certify that their values coincide.

    impact_floor_ratio, when given, applies apply_impact_floor before
    solving.  Off by default.
    """
    mat = apply_impact_floor(payoff, impact_floor_ratio)
    alpha, rho = solve_maxmin(mat)
    beta, phi = solve_minimax(mat)
    if abs(rho - phi) > _DUALITY_TOL * max(1.0, abs(rho)):
        raise DualityGapError(
            f"max-min value {rho!r} and min-max value {phi!r} disagree"
        )
    return GameSolution(
        attacker=alpha, defender=beta, attacker_value=rho, defender_value=phi
    )


def diagonal_closed_form(u) -> GameSolution:
    """Exact solution of the diagonal game, independent of the LP path.

    With all impacts positive, equalising u_i * p_i across lanes forces
    p_i proportional to 1/u_i on both sides and a value of 1/sum(1/u_i).
    Any zero-impact lane drops the value to 0: the defender hides all
    confidence on zero-impact lanes and the attacker has nothing to gain
    anywhere, so its canonical strategy is uniform.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty vector")
    if np.any(u < 0.0):
        raise ValueError("impacts must be >= 0")
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
