import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from sybil_atsc.game import (
    GameSolution,
    GameSolverError,
    DualityGapError,
    MixedStrategy,
    build_payoff_matrix,
    diagonal_closed_form,
    solve_game,
    solve_maxmin,
    solve_minimax,
)
from sybil_atsc.simplex import solve_lp
import game_reference
from grid_oracle import maxmin_value_by_grid

impacts_st = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8)


def _bits(sol: GameSolution) -> tuple:
    """A solution's mixes and values as hex strings, to compare bit for bit."""
    return (
        [p.hex() for p in sol.attacker.probs],
        [p.hex() for p in sol.defender.probs],
        sol.attacker_value.hex(),
        sol.defender_value.hex(),
    )


def _outcome(solve, *args, **kwargs):
    """What solve returns, or the GameSolverError it raises."""
    try:
        return solve(*args, **kwargs)
    except GameSolverError as exc:
        return exc


class TestBuildPayoffMatrix:
    def test_elementwise_difference(self):
        u = build_payoff_matrix([1.75, 1.5, 2.0], [0.75, 1.5, 1.0])
        assert u.tolist() == [1.0, 0.0, 1.0]

    def test_no_headroom_anywhere(self):
        u = build_payoff_matrix([1.0, 2.0], [1.0, 2.0])
        assert np.all(u == 0.0)

    def test_single_lane(self):
        u = build_payoff_matrix([1.0], [0.2])
        assert u.tolist() == [0.8]

    def test_clamps_oversaturated(self):
        u = build_payoff_matrix([1.0], [1.5])
        assert u.tolist() == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_payoff_matrix([1.0, 2.0], [1.0])

    def test_type_invariants(self):
        # every game function takes a non-empty, finite, >= 0 impact vector
        fns = (solve_maxmin, solve_minimax, solve_game, diagonal_closed_form)
        bad = ([], [1.0, -0.1], np.diag([1.0, 2.0]), [np.nan, 1.0], [np.inf, 1.0])
        for fn in fns:
            for u in bad:
                with pytest.raises(ValueError):
                    fn(u)


class TestMixedStrategy:
    def test_validation(self):
        MixedStrategy(probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            MixedStrategy(probs=(0.7, 0.7))
        with pytest.raises(ValueError):
            MixedStrategy(probs=(1.5, -0.5))
        with pytest.raises(ValueError):
            MixedStrategy(probs=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_non_finite_probability_rejected(self, bad, slot):
        probs = [0.5, 0.5]
        probs[slot] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MixedStrategy(probs=tuple(probs))
        with pytest.raises(ValueError, match="non-finite"):
            MixedStrategy(probs=(bad, bad))


class TestSolveMaxmin:
    def test_symmetric_two_lane(self):
        alpha, rho = solve_maxmin([1.0, 1.0])
        assert alpha.probs == pytest.approx((0.5, 0.5), abs=1e-9)
        assert rho == pytest.approx(0.5, abs=1e-9)

    def test_asymmetric_two_lane(self):
        # closed form: weights 1/u, value 1/sum(1/u) = 0.75
        alpha, rho = solve_maxmin([1.0, 3.0])
        assert alpha.probs == pytest.approx((0.75, 0.25), abs=1e-9)
        assert rho == pytest.approx(0.75, abs=1e-9)
        assert rho == pytest.approx(maxmin_value_by_grid(np.diag([1.0, 3.0])), abs=2e-3)

    def test_zero_matrix_uniform_tiebreak(self):
        alpha, rho = solve_maxmin(np.zeros(3))
        assert rho == 0.0
        assert alpha.probs == pytest.approx((1 / 3,) * 3)


class TestSolveMinimax:
    def test_symmetric(self):
        beta, phi = solve_minimax([1.0, 1.0])
        assert beta.probs == pytest.approx((0.5, 0.5), abs=1e-9)
        assert phi == pytest.approx(0.5, abs=1e-9)

    def test_more_confidence_on_low_impact_lane(self):
        beta, phi = solve_minimax([1.0, 3.0])
        assert beta.probs == pytest.approx((0.75, 0.25), abs=1e-9)
        assert phi == pytest.approx(0.75, abs=1e-9)

    def test_defender_concentrates_on_zero_impact_lane(self):
        beta, phi = solve_minimax([2.0, 0.0])
        assert phi == pytest.approx(0.0, abs=1e-9)
        assert beta.probs == pytest.approx((0.0, 1.0), abs=1e-9)

    def test_nan_out_of_the_lp_is_a_solver_error(self, nan_lp):
        with pytest.raises(GameSolverError):
            solve_minimax([1.0, 3.0])


class TestSolveGame:
    def test_duality_on_asymmetric_game(self):
        sol = solve_game([1.0, 3.0])
        assert sol.attacker_value == pytest.approx(0.75, abs=1e-9)
        assert sol.defender_value == pytest.approx(0.75, abs=1e-9)

    def test_zero_matrix(self):
        sol = solve_game(np.zeros(4))
        assert sol.value == 0.0
        assert sol.attacker.probs == pytest.approx((0.25,) * 4)

    def test_solution_invariant_enforced(self):
        with pytest.raises(DualityGapError):
            GameSolution(
                attacker=MixedStrategy((1.0,)),
                defender=MixedStrategy((1.0,)),
                attacker_value=1.0,
                defender_value=2.0,
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["attacker_value", "defender_value"])
    def test_non_finite_value_rejected(self, bad, field):
        values = {"attacker_value": 1.0, "defender_value": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GameSolution(
                attacker=MixedStrategy((1.0,)), defender=MixedStrategy((1.0,)), **values
            )
        with pytest.raises(ValueError, match="must be finite"):
            GameSolution(
                attacker=MixedStrategy((1.0,)),
                defender=MixedStrategy((1.0,)),
                attacker_value=bad,
                defender_value=bad,
            )

    @given(impacts_st)
    @settings(max_examples=60)
    def test_duality_property(self, u):
        sol = solve_game(u)
        gap = abs(sol.attacker_value - sol.defender_value)
        assert gap <= 1e-8 * max(1.0, abs(sol.attacker_value))

    @given(impacts_st)
    @settings(max_examples=60)
    def test_matches_closed_form(self, u):
        assert _bits(solve_game(u)) == _bits(diagonal_closed_form(u))

    @given(impacts_st, st.floats(0.1, 50.0))
    @settings(max_examples=40)
    def test_scale_equivariance(self, u, c):
        base = solve_game(u)
        scaled = solve_game(np.asarray(u) * c)
        assert scaled.value == pytest.approx(c * base.value, rel=1e-7)
        assert np.asarray(scaled.attacker.probs) == pytest.approx(
            np.asarray(base.attacker.probs), abs=1e-7
        )
        assert np.asarray(scaled.defender.probs) == pytest.approx(
            np.asarray(base.defender.probs), abs=1e-7
        )

    @given(impacts_st)
    @settings(max_examples=60)
    def test_saddle_point(self, u):
        sol = solve_game(u)
        # the payoff matrix is diag(u), so row and column payoffs coincide
        row_payoffs = np.asarray(u) * np.asarray(sol.attacker.probs)
        col_payoffs = np.asarray(u) * np.asarray(sol.defender.probs)
        assert np.all(row_payoffs >= sol.value - 1e-8)
        assert np.all(col_payoffs <= sol.value + 1e-8)


class TestDiagonalClosedForm:
    def test_harmonic_weighting(self):
        sol = diagonal_closed_form([1.0, 3.0])
        assert sol.attacker.probs == pytest.approx((0.75, 0.25))
        assert sol.value == pytest.approx(0.75)

    def test_symmetric_four_lanes(self):
        sol = diagonal_closed_form([2.5] * 4)
        assert sol.attacker.probs == pytest.approx((0.25,) * 4)
        assert sol.value == pytest.approx(2.5 / 4)

    def test_zero_impact_lane_dominates_defense(self):
        sol = diagonal_closed_form([5.0, 0.0])
        assert sol.attacker_value == sol.defender_value == 0.0
        assert sol.defender.probs == (0.0, 1.0)
        assert sol.attacker.probs == (1.0, 0.0)  # the LP's vertex; every mix attains 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            diagonal_closed_form([])
        with pytest.raises(ValueError):
            diagonal_closed_form([-1.0])
        with pytest.raises(ValueError):
            diagonal_closed_form([np.nan, 1.0])

    def test_lp_and_closed_form_share_the_zero_impact_vertices(self):
        # With a zero impact every attacker mix is optimal, and every
        # defender mix over the zero-impact lanes.  Both forms keep the
        # vertices the LP's Bland pivots land on: lane 0 for the attacker,
        # the first zero-impact lane for the defender, and uniform mixes
        # when every impact is zero.
        for u, attacker, defender in (
            ([0.0, 0.0, 3.0], (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ([3.0, 0.0, 0.0], (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
            ([0.0] * 4, (0.25,) * 4, (0.25,) * 4),
        ):
            oracle = diagonal_closed_form(u)
            assert (oracle.attacker.probs, oracle.defender.probs) == (attacker, defender)
            assert oracle.attacker_value == oracle.defender_value == 0.0
            assert _bits(solve_game(u)) == _bits(oracle)


def _exact(u) -> tuple[np.ndarray, float]:
    """The game's solution in rationals, each entry rounded once to a float:
    p_i proportional to 1/u_i and the value 1/sum(1/u)."""
    inverse = [1 / Fraction(x) for x in u]
    total = sum(inverse)
    return np.array([float(x / total) for x in inverse]), float(1 / total)


class TestNormalisedLP:
    """The runtime LPs, certified against the shifted dense LP they replaced
    (game_reference.py) and against the exact rational solution."""

    @staticmethod
    def check_against_reference(u):
        # the reference is within 1e-10 of the exact mix only on games of a
        # moderate range, like the lab's; on [1e-3, 1e3] it is off by 3e-3
        for maximize, solve in ((True, solve_maxmin), (False, solve_minimax)):
            strategy, value = solve(u)
            ref, _ = game_reference.solve_side(u, maximize=maximize)
            if all(u):
                got, want = np.asarray(strategy.probs), np.asarray(ref.probs)
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want)
            else:  # the vertex the reference's Bland pivots land on
                assert strategy.probs == ref.probs
                assert value == 0.0

    @staticmethod
    def check_against_exact(u):
        probs, value = _exact(u)
        (alpha, rho), (beta, phi) = solve_maxmin(u), solve_minimax(u)
        assert rho == phi  # the two LPs end on the same x, bit for bit
        assert abs(rho - value) <= 1e-14 * value
        for strategy in (alpha, beta):
            assert np.all(np.abs(np.asarray(strategy.probs) - probs) <= 1e-14 * probs)

    @given(st.lists(st.sampled_from([0.0]) | st.floats(1e-2, 10.0), min_size=1,
                    max_size=40))
    def test_matches_reference(self, u):
        self.check_against_reference(u)

    @given(st.lists(st.floats(1e-300, 1e3), min_size=1, max_size=40))
    def test_matches_exact_solution(self, u):
        self.check_against_exact(u)

    @pytest.mark.parametrize("zeros", [0.0, 0.1])
    def test_grid_sized_game(self, zeros):
        rng = np.random.default_rng(400)
        u = rng.uniform(0.01, 0.54, 400)  # the grid's headroom range
        u[rng.random(400) < zeros] = 0.0
        self.check_against_reference(u)
        if zeros == 0.0:
            self.check_against_exact(u)

    def test_grid_sized_game_over_the_whole_range(self):
        u = 10.0 ** np.random.default_rng(401).uniform(-300, 3, 400)
        self.check_against_exact(u)

    @pytest.mark.parametrize("u", [[5e-324, 1.0], [1e-310, 1.0]])
    def test_solution_past_the_float_range_is_a_solver_error(self, u):
        # the impacts span more than the float range: scaled so that the
        # largest is in [0.5, 1), the smallest one's 1/u_i is not finite
        for solve in (solve_maxmin, solve_minimax, diagonal_closed_form):
            with pytest.raises(GameSolverError, match="overflow"):
                solve(u)

    @pytest.mark.parametrize(
        "u", [[2.0**-1030], [1e-308] * 40, [1.7976931348623157e308]],
        ids=["subnormal", "forty-subnormals", "float-max"],
    )
    def test_a_game_at_the_ends_of_the_float_range_solves(self, u):
        # unscaled, 1/u_i or the value overflows; scaled, the mixes and the
        # value fit in floats, a subnormal value to within its last bit
        probs, value = _exact(u)
        (alpha, rho), (beta, phi) = solve_maxmin(u), solve_minimax(u)
        assert rho == phi
        assert abs(rho - value) <= 1e-14 * value + 5e-324
        for strategy in (alpha, beta):
            assert np.all(np.abs(np.asarray(strategy.probs) - probs) <= 1e-14 * probs)
        assert _bits(diagonal_closed_form(u)) == _bits(solve_game(u))

    @given(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False) | st.just(0.0),
                    min_size=1, max_size=12),
           st.data())
    def test_a_power_of_two_scales_only_the_value(self, u, data):
        # k keeps every impact's bits: no scaled impact overflows or turns
        # subnormal, so u * 2**k is exact
        exponents = [np.frexp(x)[1] for x in u if x > 0.0]
        lo = -1021 - min(exponents, default=0)
        hi = 1024 - max(exponents, default=0)
        assume(lo <= hi)
        k = data.draw(st.integers(lo, hi), label="k")
        scaled = np.ldexp(u, k)
        assert np.array_equal(np.ldexp(scaled, -k), u)
        for solve in (solve_maxmin, solve_minimax):
            try:
                got = solve(u)
            except GameSolverError as exc:
                event("both overflow")
                with pytest.raises(GameSolverError, match=re.escape(str(exc))):
                    solve(scaled)
                continue
            (strategy, value), (strategy_k, value_k) = got, solve(scaled)
            assert [p.hex() for p in strategy_k.probs] == [p.hex() for p in strategy.probs]
            # each value is one float w, the same in both, times 2**top and
            # rounded once; only a product below the normal floats rounds
            if 0.0 in u or value >= _TINY:
                assert value_k == np.ldexp(value, k)
            elif value_k >= _TINY:
                assert value == np.ldexp(value_k, -k)
            else:
                event("both values subnormal")


class TestGridOracle:
    def test_dim3_game_matches_grid(self):
        u = [1.0, 2.0, 4.0]
        sol = solve_game(u)
        grid_value = maxmin_value_by_grid(np.diag(u))
        assert sol.value == pytest.approx(grid_value, abs=2e-3)


_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


@st.composite
def distinct_impact_games(draw):
    """k <= 8 distinct positive impacts spread over D <= 64 lanes.

    A value is drawn fresh, or as the one-ulp neighbour of the value before
    it; fresh draws reach subnormals and the top of the float range.
    """
    values = []
    for _ in range(draw(st.integers(1, 8))):
        if values and draw(st.booleans()):
            prev = values[-1]
            value = float(np.nextafter(prev, 0.0 if prev == _MAX else np.inf))
        else:
            value = draw(st.floats(1e-2, 0.6) | st.floats(0.0, exclude_min=True,
                                                         allow_infinity=False))
        if value not in values:
            values.append(value)
    lanes = draw(st.lists(st.sampled_from(values), min_size=len(values), max_size=64))
    return lanes


def _near_float_max(u) -> bool:
    """Whether the exact sum of 2**top/u_i, the LPs' sum on u scaled by the
    largest impact's exponent top, lies within 2**-40 of the float max."""
    scale = Fraction(2) ** int(np.frexp(max(u))[1])
    total = sum(scale / Fraction(x) for x in u)
    return abs(total - Fraction(_MAX)) <= Fraction(_MAX) * Fraction(1, 2**40)


class TestDistinctImpacts:
    """The runtime LP keeps one row per distinct impact; the D-row LP it
    replaced (game_reference.solve_side_full) certifies it, and the closed
    form, bit for bit."""

    @given(distinct_impact_games())
    @settings(max_examples=300)
    def test_matches_the_full_lp_bit_for_bit(self, u):
        closed = _outcome(diagonal_closed_form, u)
        for maximize, solve in ((True, solve_maxmin), (False, solve_minimax)):
            side = "max-min" if maximize else "min-max"
            want = _outcome(game_reference.solve_side_full, u, maximize=maximize)
            if isinstance(closed, GameSolverError):
                closed_side = closed
            elif maximize:
                closed_side = closed.attacker, closed.attacker_value
            else:
                closed_side = closed.defender, closed.defender_value
            for got, failed in ((_outcome(solve, u), f"{side} LP failed"),
                                (closed_side, "closed form failed")):
                if isinstance(want, GameSolverError) != isinstance(got, GameSolverError):
                    # The LPs sum the solution inside their objective rows in
                    # another order, so within a few ulps of the float max
                    # one may overflow where another does not.
                    event("one path overflows at the float max")
                    assert _near_float_max(u)
                elif isinstance(want, GameSolverError):
                    # the operation that overflowed may differ, the error does not
                    event("both paths overflow")
                    assert type(got) is type(want)
                    assert str(got).startswith(f"{failed}: overflow")
                    assert str(want).startswith(f"{side} LP failed: overflow")
                else:
                    event("both paths solve")
                    (strategy, value), (ref, ref_value) = got, want
                    assert [p.hex() for p in strategy.probs] == [p.hex() for p in ref.probs]
                    assert value.hex() == ref_value.hex()

    @pytest.mark.parametrize(
        "u, rows",
        [([0.45] * 400, 1), ([0.5, 0.25, 0.5, 0.125] * 3, 3), ([0.3, 0.2, 0.1], 3)],
        ids=["grid-at-t0", "twelve-lanes-three-impacts", "all-distinct"],
    )
    def test_lp_has_one_row_per_distinct_impact(self, monkeypatch, u, rows):
        import sybil_atsc.game as game

        shapes = []

        def spy(c, a_ub, b_ub, **kwargs):
            shapes.append(np.shape(a_ub))
            return solve_lp(c, a_ub, b_ub, **kwargs)

        monkeypatch.setattr(game, "solve_lp", spy)
        solve_game(u)
        assert shapes == [(rows, rows), (rows, rows)]

    def test_the_total_is_summed_over_every_lane(self):
        # 3 lanes at 0.5 and one at 0.25: sum(x) = 3 * 2 + 4, not 2 + 4
        alpha, rho = solve_maxmin([0.5, 0.25, 0.5, 0.5])
        assert alpha.probs == (0.2, 0.4, 0.2, 0.2)
        assert rho == 0.1


def _ulps(got: float, exact: Fraction) -> Fraction:
    """|got - exact| in units in the last place of exact rounded to a float."""
    return abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact)))


class TestExact:
    """The closed form against the exact rational solution, in ulps; the LPs
    equal it bit for bit (TestDistinctImpacts), so this certifies them too.

    With u_i = m_i * 2**e_i and top the largest e_i, the exact solution is
    x_i = 2**(top - e_i) / m_i, the mix x_i / sum(x) and the value
    2**top / sum(x).  Each x_i rounds once, and a sum of D positive terms,
    in any order, rounds D - 1 times, so sum(x) is within D roundings of
    the exact sum.  A mix entry, one division more, is then within D + 2
    relative roundings and the value, one reciprocal more, within D + 1,
    each below an ulp.  The bounds allow one ulp more, for second-order
    terms and a subnormal's last rounding.  The sum's roundings mostly
    cancel: over 8,000 games with D <= 64, uniform, equal, few-valued and
    spread over 10**+-300, the worst errors were 6.5 ulps on a mix entry
    and 6.2 on the value.
    """

    @staticmethod
    def check(u):
        d = len(u)
        scale = Fraction(2) ** int(np.frexp(max(u))[1])
        x = [scale / Fraction(v) for v in u]
        total = sum(x)
        try:
            sol = diagonal_closed_form(u)
        except GameSolverError:
            # x or its sum overflows only where the exact sum nears the float max
            event("overflows")
            assert total >= Fraction(_MAX) * (1 - Fraction(1, 2**40))
            return
        event("solves")
        assert sol.attacker == sol.defender
        assert max(_ulps(p, xi / total) for p, xi in zip(sol.attacker.probs, x)) <= d + 3
        assert sol.attacker_value == sol.defender_value
        assert _ulps(sol.value, scale / total) <= d + 2

    @given(distinct_impact_games())
    def test_a_drawn_game_is_within_d_ulps_of_the_exact_solution(self, u):
        self.check(u)

    @given(st.lists(st.floats(-300.0, 300.0).map(lambda e: 10.0**e), min_size=1,
                    max_size=40))
    def test_a_game_over_the_whole_range_is_within_d_ulps_of_it(self, u):
        self.check(u)

    @given(distinct_impact_games(), st.data())
    @settings(max_examples=25)
    def test_a_zero_impact_gives_the_lp_vertices_exactly(self, u, data):
        d = len(u)
        zeros = data.draw(st.sets(st.integers(0, d - 1), min_size=1), label="zeros")
        u = [0.0 if i in zeros else v for i, v in enumerate(u)]
        sol = diagonal_closed_form(u)
        if len(zeros) == d:
            attacker = defender = (1.0 / d,) * d
        else:
            attacker = tuple(float(i == 0) for i in range(d))
            defender = tuple(float(i == min(zeros)) for i in range(d))
        assert (sol.attacker.probs, sol.defender.probs) == (attacker, defender)
        assert sol.attacker_value == sol.defender_value == 0.0
