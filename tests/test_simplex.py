import hashlib

import numpy as np
import pytest
from scipy.optimize import linprog

from sybil_atsc.simplex import (
    LPError,
    LPInfeasibleError,
    LPPivotLimitError,
    LPUnboundedError,
    solve_lp,
)


class TestBasics:
    def test_single_variable_bound(self):
        res = solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0], maximize=True)
        assert res.objective == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_contradictory_bounds_infeasible(self):
        # x >= 1 and x <= 0
        with pytest.raises(LPInfeasibleError):
            solve_lp([1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            solve_lp([1.0], a_ub=[[-1.0]], b_ub=[0.0], maximize=True)

    def test_no_constraints(self):
        res = solve_lp([1.0, 2.0])
        assert res.objective == 0.0
        with pytest.raises(LPUnboundedError):
            solve_lp([-1.0, 0.0])

    def test_equality_constraints(self):
        # min x+y s.t. x+y = 2  -> 2
        res = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0])
        assert res.objective == pytest.approx(2.0)

    def test_negative_rhs_handled(self):
        # -x <= -2  (x >= 2), minimise x
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[-2.0])
        assert res.objective == pytest.approx(2.0)

    def test_right_hand_side_length_must_match_rows(self):
        # a surplus entry used to be dropped, and with it the bound x <= -5
        with pytest.raises(ValueError, match="b_ub"):
            solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0, -5.0], maximize=True)
        with pytest.raises(ValueError, match="b_eq"):
            solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0, 1.0])
        with pytest.raises(ValueError, match="b_ub"):
            solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[3.0])

    def test_pivot_limit_reported(self):
        with pytest.raises(LPPivotLimitError):
            solve_lp(
                [1.0, 1.0, 1.0],
                a_ub=np.eye(3),
                b_ub=[1.0, 1.0, 1.0],
                maximize=True,
                max_pivots=1,
            )


class TestGameEncoding:
    def test_maxmin_lp_for_two_lane_game(self):
        # variables (a1, a2, rho); payoffs diag(1, 3)
        u = np.diag([1.0, 3.0])
        a_ub = np.hstack([-u, np.ones((2, 1))])
        res = solve_lp(
            [0.0, 0.0, 1.0],
            a_ub=a_ub,
            b_ub=[0.0, 0.0],
            a_eq=[[1.0, 1.0, 0.0]],
            b_eq=[1.0],
            maximize=True,
        )
        assert res.objective == pytest.approx(0.75, abs=1e-9)
        assert res.x[:2] == pytest.approx([0.75, 0.25], abs=1e-9)


class TestDegeneracy:
    def test_beale_cycling_example_terminates(self):
        # Classic cycling instance for naive pivoting; Bland must finish.
        c = [-0.75, 150.0, -0.02, 6.0]
        a_ub = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b_ub = [0.0, 0.0, 1.0]
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert res.objective == pytest.approx(-0.05, abs=1e-9)


class TestAgainstScipy:
    def test_random_inequality_programs(self):
        rng = np.random.default_rng(20260808)
        agreed = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(2, 7))
            c = rng.uniform(-2.0, 2.0, n)
            a = rng.uniform(-1.0, 1.0, (m, n))
            b = rng.uniform(0.5, 3.0, m)  # x = 0 always feasible
            ref = linprog(c, A_ub=a, b_ub=b, bounds=(0, None), method="highs")
            if not ref.success:
                try:
                    solve_lp(c, a_ub=a, b_ub=b)
                except LPUnboundedError:
                    continue
                raise AssertionError("scipy failed where our solver succeeded")
            res = solve_lp(c, a_ub=a, b_ub=b)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            agreed += 1
        assert agreed >= 25  # enough bounded instances to mean something

    def test_random_mixed_programs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            c = rng.uniform(-1.0, 1.0, n)
            a_ub = rng.uniform(-1.0, 1.0, (3, n))
            b_ub = rng.uniform(0.5, 2.0, 3)
            a_eq = np.ones((1, n))
            b_eq = [1.0]
            ref = linprog(
                c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                bounds=(0, None), method="highs",
            )
            if not ref.success:
                with pytest.raises((LPInfeasibleError, LPUnboundedError)):
                    solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
                continue
            res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)


def _game_lp(u, *, maximize):
    """The LP that game._solve_side hands solve_lp for impacts u."""
    d = len(u)
    mat = np.diag(u)
    shifted = mat + (1.0 + abs(float(mat.min())))
    c = np.zeros(d + 1)
    c[d] = 1.0
    col = np.ones((d, 1))
    a_ub = np.hstack([-shifted, col]) if maximize else np.hstack([shifted, -col])
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = 1.0
    return dict(
        c=c, a_ub=a_ub, b_ub=np.zeros(d), a_eq=a_eq, b_eq=np.ones(1), maximize=maximize
    )


def _golden_corpus():
    """Seeded LPs covering every branch of solve_lp, as keyword dicts."""
    rng = np.random.default_rng(20261018)
    for d in range(1, 41):
        u = np.round(rng.uniform(0.0, 2.0, d), 1)  # ties, and zeros now and then
        if d % 5 == 0:
            u[rng.integers(d)] = 0.0
        for maximize in (True, False):
            yield _game_lp(u, maximize=maximize)
    yield _game_lp(np.zeros(3), maximize=True)
    u = np.round(rng.uniform(0.1, 0.6, 400), 1)  # a grid-sized game
    for maximize in (True, False):
        yield _game_lp(u, maximize=maximize)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        m_ub = int(rng.integers(1, 5))
        m_eq = int(rng.integers(0, 3))
        sign = rng.choice([-1.0, 1.0], m_eq)  # a negated row is still feasible
        yield dict(
            c=np.round(rng.uniform(-1.0, 1.0, n), 2),
            a_ub=np.round(rng.uniform(-1.0, 1.0, (m_ub, n)), 2),
            b_ub=np.round(rng.uniform(-0.5, 2.0, m_ub), 2),
            a_eq=sign[:, None] * np.round(rng.uniform(0.0, 1.0, (m_eq, n)), 2),
            b_eq=sign * np.round(rng.uniform(0.2, 1.0, m_eq), 2),
            maximize=bool(rng.integers(2)),
        )
    for _ in range(40):  # 0/1 equality rows leave zero-level artificials to drive out
        n = int(rng.integers(2, 5))
        m_eq = int(rng.integers(2, 4))
        yield dict(
            c=rng.integers(-1, 2, n).astype(float),
            a_eq=rng.integers(-1, 2, (m_eq, n)).astype(float),
            b_eq=rng.integers(0, 2, m_eq).astype(float),
        )
    # Optima holding a -0.0 that a write to a zero-factor row would flip to +0.0
    yield dict(c=[-1.0, -1.0], a_ub=[[0.0, 0.0], [2.0, 0.0], [-0.0, 1.0]],
               b_ub=[1.0, 0.0, -0.0])
    yield dict(c=[1.0, -0.0, 1.0], a_ub=[[0.5, 0.0, -1.0], [1.0, 0.5, -0.0]],
               b_ub=[-0.0, -0.0], a_eq=[[-1.0, 1.0, 1.0]], b_eq=[-0.0])
    yield dict(c=[-0.0, -0.0, -1.0], a_ub=[[0.5, 1.0, 0.5]], b_ub=[1.0],
               a_eq=[[1.0, 0.0, -0.0]], b_eq=[-0.0])
    yield dict(c=[1.0], a_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.0])  # infeasible
    yield dict(c=[1.0], a_ub=[[-1.0]], b_ub=[0.0], maximize=True)  # unbounded
    yield dict(c=[1.0, 2.0])
    yield dict(c=[-1.0, 0.0])
    yield dict(c=[1.0, 1.0, 1.0], a_ub=np.eye(3), b_ub=[1.0] * 3, maximize=True,
               max_pivots=1)
    yield dict(**_game_lp(np.arange(1.0, 13.0), maximize=False), max_pivots=5)


class TestGoldenBytes:
    """solve_lp's exact output bytes, pivot counts and failures, pinned.

    The digest covers x.tobytes(), repr(objective) and each failure's type
    and message over a seeded corpus.  Any change to the pivot sequence or
    to the arithmetic of a pivot moves it; a faster kernel must not.
    """

    DIGEST = "259f24752d12364908ecba01ac15c9305b161422cb7e5e78efb972133c87692a"

    def test_corpus_digest(self):
        h = hashlib.sha256()
        kinds = {}
        for case in _golden_corpus():
            try:
                res = solve_lp(**case)
            except LPError as exc:
                kind = type(exc).__name__
                h.update(f"{kind}: {exc}\n".encode())
            else:
                kind = "solved"
                h.update(res.x.tobytes())
                h.update(f"{res.objective!r}\n".encode())
            kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) == {
            "solved", "LPInfeasibleError", "LPUnboundedError", "LPPivotLimitError"
        }
        assert h.hexdigest() == self.DIGEST

    @pytest.mark.parametrize(
        "case, pivots",
        [
            (_game_lp(np.arange(1.0, 13.0), maximize=True), 13),
            (_game_lp(np.arange(1.0, 13.0), maximize=False), 14),
            (_game_lp(np.round(np.linspace(0.1, 2.0, 40), 1), maximize=False), 42),
            (dict(c=[-0.75, 150.0, -0.02, 6.0],
                  a_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0],
                        [0.0, 0.0, 1.0, 0.0]],
                  b_ub=[0.0, 0.0, 1.0]), 6),
            (dict(c=[1.0, 2.0, -1.0], a_ub=[[1.0, 1.0, 1.0], [-1.0, 2.0, 0.0]],
                  b_ub=[4.0, -1.0], a_eq=[[1.0, 0.0, 1.0]], b_eq=[2.0]), 3),
        ],
    )
    def test_fewest_pivots_that_succeed(self, case, pivots):
        solve_lp(**case, max_pivots=pivots)
        with pytest.raises(LPPivotLimitError):
            solve_lp(**case, max_pivots=pivots - 1)
