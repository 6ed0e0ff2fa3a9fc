import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from game_reference import game_lp
from sybil_atsc.simplex import (
    LPError,
    LPInfeasibleError,
    LPPivotLimitError,
    LPUnboundedError,
    _pivot,
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

    def test_matrix_width_must_match_c(self):
        # a third column used to be read as a variable c does not have
        wide = r"a_ub has shape \(1, 3\) for c of shape \(2,\)"
        with pytest.raises(ValueError, match=wide):
            solve_lp([1.0, 0.0], a_ub=[[1.0, 0.0, -1.0]], b_ub=[1.0], maximize=True)
        narrow = r"a_eq has shape \(1, 1\) for c of shape \(2,\)"
        with pytest.raises(ValueError, match=narrow):
            solve_lp([1.0, 1.0], a_eq=[[1.0]], b_eq=[2.0])
        with pytest.raises(ValueError, match=r"a_ub has shape \(2, 1\)"):
            solve_lp([1.0, 1.0], a_ub=[[1.0], [2.0]], b_ub=[1.0, 1.0])
        with pytest.raises(ValueError, match=r"c must be a vector, got shape \(1, 2\)"):
            solve_lp([[1.0, 1.0]], a_ub=[[1.0, 1.0]], b_ub=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
    def test_non_finite_entry_is_named(self, name, bad):
        # a NaN in c used to give x = [0, 0] with objective nan, and a NaN in
        # a_ub or b_ub, or an inf in b_ub, a false LPUnboundedError
        args = {
            "c": [1.0, 1.0],
            "a_ub": [[1.0, 1.0]],
            "b_ub": [1.0],
            "a_eq": [[1.0, -1.0]],
            "b_eq": [0.0],
        }
        solve_lp(**args)
        entries = np.array(args[name], dtype=float)
        entries.flat[0] = bad
        args[name] = entries
        with pytest.raises(ValueError, match=rf"^{name} has a non-finite entry$"):
            solve_lp(**args)

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


def _golden_corpus():
    """Seeded LPs covering every branch of solve_lp, as keyword dicts."""
    rng = np.random.default_rng(20261018)
    for d in range(1, 41):
        u = np.round(rng.uniform(0.0, 2.0, d), 1)  # ties, and zeros now and then
        if d % 5 == 0:
            u[rng.integers(d)] = 0.0
        for maximize in (True, False):
            yield game_lp(u, maximize=maximize)
    yield game_lp(np.zeros(3), maximize=True)
    u = np.round(rng.uniform(0.1, 0.6, 400), 1)  # a grid-sized game
    for maximize in (True, False):
        yield game_lp(u, maximize=maximize)
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
    yield dict(**game_lp(np.arange(1.0, 13.0), maximize=False), max_pivots=5)


def _hundredths(rng, shape, zero_frac):
    """Integers in [-100, 100], about zero_frac of them zero."""
    a = rng.integers(-100, 101, shape)
    a[rng.random(shape) < zero_frac] = 0
    return a


def _as_float(rng, a):
    """a / 100, with about half of its zeros written as -0.0."""
    return np.where((a == 0) & (rng.random(a.shape) < 0.5), -0.0, a / 100.0)


def _large_corpus():
    """Seeded LPs of 64-200 rows, for pivots over many rows and columns.

    Sparse rows give zero factors and many zero columns in the pivot rows; a
    feasible point x0 makes some b_ub negative, so their slacks start outside
    the basis; a duplicated equality row keeps an artificial basic after
    phase 1; and a D = 150 lane game is solved on both sides.  Right-hand
    sides are computed in integers, so no float sum's order can move them.
    """
    rng = np.random.default_rng(20261019)
    for k in range(8):
        n = int(rng.integers(16, 49))
        m_ub = int(rng.integers(64, 201))
        a_ub = _hundredths(rng, (m_ub, n), rng.uniform(0.3, 0.7))
        a_ub[0] = 100  # sum(x) <= b_ub[0] bounds most of them
        x0 = rng.integers(0, 101, n) * (rng.random(n) < 0.5)
        b_ub = (a_ub @ x0 + rng.integers(0, 5001, m_ub)) / 1e4
        case = dict(c=np.round(rng.uniform(-1.0, 1.0, n), 2), a_ub=_as_float(rng, a_ub),
                    b_ub=b_ub, maximize=bool(k % 2))
        if k % 3:
            a_eq = _hundredths(rng, (int(rng.integers(2, 6)), n), 0.5)
            a_eq = np.vstack([a_eq, a_eq[:1]])  # a redundant, duplicated row
            case.update(a_eq=_as_float(rng, a_eq), b_eq=(a_eq @ x0) / 1e4)
        yield case
    u = np.round(rng.uniform(0.1, 2.0, 150), 1)
    for maximize in (True, False):
        yield game_lp(u, maximize=maximize)


def _outcome(case):
    """What solve_lp gives for case: x's bytes and the objective's repr, or
    the type and message of its failure."""
    try:
        res = solve_lp(**case)
    except LPError as exc:
        return type(exc), str(exc)
    return res.x.tobytes(), repr(res.objective)


def _hash_outcomes(cases):
    """Digest of each case's x bytes and objective repr, or its failure."""
    h = hashlib.sha256()
    kinds = {}
    for case in cases:
        first, second = _outcome(case)
        if isinstance(first, bytes):
            kind = "solved"
            h.update(first)
            h.update(f"{second}\n".encode())
        else:
            kind = first.__name__
            h.update(f"{kind}: {second}\n".encode())
        kinds[kind] = kinds.get(kind, 0) + 1
    return h.hexdigest(), kinds


class TestGoldenBytes:
    """solve_lp's exact output bytes, pivot counts and failures, pinned.

    The digest covers x.tobytes(), repr(objective) and each failure's type
    and message over a seeded corpus.  Any change to the pivot sequence or
    to the arithmetic of a pivot moves it; a faster kernel must not.  A
    second digest covers LPs of 64-200 rows (_large_corpus), whose pivots
    meet zero factors and zero columns.
    """

    DIGEST = "259f24752d12364908ecba01ac15c9305b161422cb7e5e78efb972133c87692a"

    LARGE_DIGEST = "3583e305bfb910d125a19ba4862eeebb5699b37cb51230b5bfe4ec1d09040fd9"

    def test_corpus_digest(self):
        digest, kinds = _hash_outcomes(_golden_corpus())
        assert set(kinds) == {
            "solved", "LPInfeasibleError", "LPUnboundedError", "LPPivotLimitError"
        }
        assert digest == self.DIGEST

    def test_large_corpus_digest(self):
        digest, kinds = _hash_outcomes(_large_corpus())
        assert kinds == {"solved": 10}
        assert digest == self.LARGE_DIGEST

    @pytest.mark.parametrize(
        "case, pivots",
        [
            (game_lp(np.arange(1.0, 13.0), maximize=True), 13),
            (game_lp(np.arange(1.0, 13.0), maximize=False), 14),
            (game_lp(np.round(np.linspace(0.1, 2.0, 40), 1), maximize=False), 42),
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

    def test_ratios_tied_within_tolerance_but_not_exactly(self):
        # max x subject to x <= 1 + (19 - k) * 4e-11 for k = 0..19: all twenty
        # ratios lie within _TOL of each other, so Bland's scan keeps the first
        # row it meets, not the row of the exact minimum.
        b_ub = 1.0 + (19 - np.arange(20)) * 4e-11
        res = solve_lp([1.0], a_ub=np.ones((20, 1)), b_ub=b_ub, maximize=True)
        assert res.x[0] == b_ub[0]

    def test_ratios_too_large_to_tie_within_tolerance(self):
        # Above 2**23, r + _TOL rounds to r: the scan then keeps the first of
        # the exactly tied rows, not the one with the lowest basic variable.
        res = solve_lp(
            [-3.0, -2.0, 1.0],
            a_ub=[[-2.0, 1.0, -2.0], [1.0, -1.0, 0.0], [3.0, 1.0, -1.0]]
            + [[1.0, 1.0, 1.0]] * 16,
            b_ub=[1e8] * 3 + [9e8] * 16,
        )
        assert res.x.tobytes() == np.array(
            [0.0, 499999999.99999994, 399999999.99999994]
        ).tobytes()
        assert res.objective == -600000000.0

    def test_forbidden_artificial_leaves_the_basis(self):
        # Equality row 3 is row 1 plus row 2, off by a few 1e-10.  Phase 1
        # leaves its artificial basic on entries below _TOL, and a phase-2
        # pivot takes it out through an entry grown past _TOL: the column it
        # leaves behind is all zeros.
        res = solve_lp(
            [0.0, 2.0, 3.0, -1.0, -3.0, -1.0],
            a_ub=[[1.0, 1.0, 1.0, 1.0, 1.0, 1.0], [-3.0, -2.0, 1.0, -3.0, -3.0, -2.0]],
            b_ub=[8.0, -17.0],
            a_eq=[[2.0, 3.0, -1.0, 0.0, 0.0, 0.0], [0.0, 1.0, -1.0, -2.0, 2.0, 0.0],
                  [2.0000000002, 4.0000000002, -2.0000000004, -2.0000000002,
                   1.9999999998, 4e-10]],
            b_eq=[5.0, 3.0, 8.0000000006],
        )
        assert res.x.tobytes() == np.array(
            [2.499999999999999, 0.0, 0.0, 0.9999999448397542, 2.499999944839754,
             2.0000001103204914]
        ).tobytes()
        assert res.objective == -10.499999889679508


class TestPivot:
    def test_rows_with_a_zero_factor_keep_every_byte(self):
        tableau = np.array([
            [-3.0, 1.0, 2.0, 0.0],  # nonzero factor
            [0.0, -0.0, 3.0, 5.0],  # zero factor, between rows that are written
            [2.0, -1.0, 0.0, 4.0],  # pivot row
            [1.0, 0.0, -0.0, 1.0],  # nonzero factor
        ])
        _pivot(tableau, 2, 0)
        # written, -0.0 - 0.0 * -0.5 would give +0.0
        assert tableau[1].tobytes() == np.array([0.0, -0.0, 3.0, 5.0]).tobytes()
        # the pivot row over 2, then each other row minus its factor times it
        assert tableau[2].tobytes() == np.array([1.0, -0.5, 0.0, 2.0]).tobytes()
        assert tableau[0].tobytes() == np.array([0.0, -0.5, 2.0, 6.0]).tobytes()
        assert tableau[3].tobytes() == np.array([0.0, 0.5, -0.0, -1.0]).tobytes()


# scipy's outcome for each linprog status a drawn program can reach
_SCIPY_FAILURES = {2: LPInfeasibleError, 3: LPUnboundedError}

# the draw space of a random program: see _draw_program
_PROGRAMS = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m_ub=st.integers(0, 100),
    m_eq=st.integers(0, 4),
    zero_frac=st.floats(0.0, 0.9),
    feasible=st.booleans(),
)


def _draw_program(seed, n, m_ub, m_eq, zero_frac, feasible):
    """A random program of hundredths, as c and the keyword dict of its rows.

    Sparse rows give zero factors and pivot rows with zero columns; a
    feasible draw is built around a point x0 >= 0 that satisfies every row,
    yet some b_ub are still negative, so their slacks start outside the
    basis.  Other draws are mostly infeasible or unbounded.
    """
    rng = np.random.default_rng(seed)
    a_ub = _hundredths(rng, (m_ub, n), zero_frac)
    a_eq = _hundredths(rng, (m_eq, n), zero_frac)
    if feasible:
        x0 = rng.integers(0, 101, n) * (rng.random(n) < 0.5)
        b_ub = a_ub @ x0 + rng.integers(0, 3001, m_ub) * (rng.random(m_ub) < 0.7)
        b_eq = a_eq @ x0
    else:
        b_ub = rng.integers(-3000, 10001, m_ub)
        b_eq = rng.integers(-3000, 10001, m_eq)
    c = _as_float(rng, rng.integers(-100, 101, n))
    rows = dict(
        a_ub=_as_float(rng, a_ub) if m_ub else None,
        b_ub=_as_float(rng, b_ub) if m_ub else None,
        a_eq=_as_float(rng, a_eq) if m_eq else None,
        b_eq=_as_float(rng, b_eq) if m_eq else None,
    )
    return c, rows


class TestAgainstScipy:
    """solve_lp against scipy's HiGHS, a solver that shares no code with it:
    the same outcome, solved, infeasible or unbounded, and on a solved
    program the same optimal objective.

    The two reach an optimal vertex through their own rounded eliminations,
    so their objectives agree to rounding, not to the bit.  The tolerance is
    solve_lp's own _TOL, 1e-9, relative to the larger of 1 and the
    objective: it stops once no reduced cost is below -_TOL.  On these
    programs of hundredths the gap is mostly under 1e-11 relative.  A draw
    past the tolerance is a finding about solve_lp, not a reason to widen it.
    """

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

    @given(**_PROGRAMS, maximize=st.booleans())
    def test_random_programs(self, seed, n, m_ub, m_eq, zero_frac, feasible, maximize):
        c, rows = _draw_program(seed, n, m_ub, m_eq, zero_frac, feasible)
        ref = linprog(-c if maximize else c, A_ub=rows["a_ub"], b_ub=rows["b_ub"],
                      A_eq=rows["a_eq"], b_eq=rows["b_eq"], bounds=(0, None), method="highs")
        assert ref.status == 0 or ref.status in _SCIPY_FAILURES, ref.message
        try:
            objective = solve_lp(c, **rows, maximize=maximize).objective
        except LPError as exc:
            assert type(exc) is _SCIPY_FAILURES.get(ref.status), ref.message
            return
        assert ref.status == 0, ref.message
        expected = -ref.fun if maximize else ref.fun
        assert objective == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestAgainstFullTableau:
    """solve_lp's full tableau, checked against the programs it answers, on
    the draw space of TestAgainstScipy with pivot-limit draws added.

    A solved program's x satisfies every row and x >= 0 to 1e-7, the phase-1
    residual below which solve_lp calls a program feasible; on these
    programs the worst miss is about 4e-10.  A pivot limit may only stop the
    run: if it finishes within the limit, every byte of its outcome, or the
    type and message of its failure, is that of the run without one.  A limit
    that changed the pivot rule as the count ran down would show here.
    """

    @given(
        **_PROGRAMS,
        maximize=st.booleans(),
        max_pivots=st.integers(0, 40),  # about the pivots these programs take
    )
    def test_random_programs(
        self, seed, n, m_ub, m_eq, zero_frac, feasible, maximize, max_pivots
    ):
        c, rows = _draw_program(seed, n, m_ub, m_eq, zero_frac, feasible)
        case = dict(c=c, **rows, maximize=maximize)
        outcome = _outcome(case)
        limited = _outcome(dict(case, max_pivots=max_pivots))
        if limited[0] is not LPPivotLimitError:
            assert limited == outcome
        if not isinstance(outcome[0], bytes):
            return
        x = np.frombuffer(outcome[0])
        assert x.min() >= -1e-7
        if rows["a_ub"] is not None:
            assert np.max(rows["a_ub"] @ x - rows["b_ub"]) <= 1e-7
        if rows["a_eq"] is not None:
            assert np.max(np.abs(rows["a_eq"] @ x - rows["b_eq"])) <= 1e-7
