import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sybil_atsc.game import (
    GameSolution,
    DualityGapError,
    MixedStrategy,
    apply_impact_floor,
    build_payoff_matrix,
    diagonal_closed_form,
    solve_game,
    solve_maxmin,
    solve_minimax,
)
from grid_oracle import maxmin_value_by_grid

impacts_st = st.lists(st.floats(0.05, 10.0), min_size=1, max_size=8)


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
        fns = (solve_maxmin, solve_minimax, solve_game, diagonal_closed_form,
               lambda u: apply_impact_floor(u, 0.1))
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
        sol = solve_game(u)
        oracle = diagonal_closed_form(u)
        assert sol.value == pytest.approx(oracle.value, abs=1e-8)
        assert np.max(np.abs(sol.attacker.as_array() - oracle.attacker.as_array())) <= 1e-7
        assert np.max(np.abs(sol.defender.as_array() - oracle.defender.as_array())) <= 1e-7

    @given(impacts_st, st.floats(0.1, 50.0))
    @settings(max_examples=40)
    def test_scale_equivariance(self, u, c):
        base = solve_game(u)
        scaled = solve_game(np.asarray(u) * c)
        assert scaled.value == pytest.approx(c * base.value, rel=1e-7)
        assert scaled.attacker.as_array() == pytest.approx(
            base.attacker.as_array(), abs=1e-7
        )
        assert scaled.defender.as_array() == pytest.approx(
            base.defender.as_array(), abs=1e-7
        )

    @given(impacts_st)
    @settings(max_examples=60)
    def test_saddle_point(self, u):
        sol = solve_game(u)
        # the payoff matrix is diag(u), so row and column payoffs coincide
        row_payoffs = np.asarray(u) * sol.attacker.as_array()
        col_payoffs = np.asarray(u) * sol.defender.as_array()
        assert np.all(row_payoffs >= sol.value - 1e-8)
        assert np.all(col_payoffs <= sol.value + 1e-8)

    def test_impact_floor_option(self):
        plain = solve_game([2.0, 0.0])
        assert plain.defender.probs == pytest.approx((0.0, 1.0), abs=1e-9)
        assert plain.value == 0.0
        floored = solve_game([2.0, 0.0], impact_floor_ratio=1e-3)
        # the floor keeps the degenerate lane from absorbing literally all
        # confidence and lifts the value off zero
        assert 0.0 < floored.defender.probs[0] < 0.01
        assert floored.value == pytest.approx(
            diagonal_closed_form([2.0, 0.002]).value, rel=1e-6
        )


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
        assert sol.value == 0.0
        assert sol.defender.probs == (0.0, 1.0)
        assert sol.attacker.probs == pytest.approx((0.5, 0.5))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            diagonal_closed_form([])
        with pytest.raises(ValueError):
            diagonal_closed_form([-1.0])
        with pytest.raises(ValueError):
            diagonal_closed_form([np.nan, 1.0])

    def test_lp_and_closed_form_split_ties_differently(self):
        # With two or more zero-impact lanes every defender mix over them is
        # optimal and the attacker gains nothing anywhere.  The LP's Bland
        # pivots land on a vertex, the first zero-impact lane, for both
        # sides; the closed form spreads the defender evenly over the zeros
        # and leaves the attacker uniform.  Only the value is shared.
        u = [0.0, 0.0, 3.0]
        alpha, rho = solve_maxmin(u)
        beta, phi = solve_minimax(u)
        oracle = diagonal_closed_form(u)
        assert alpha.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert beta.probs == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
        assert oracle.defender.probs == (0.5, 0.5, 0.0)
        assert oracle.attacker.probs == pytest.approx((1 / 3,) * 3)
        assert rho == phi == oracle.value == 0.0


class TestGridOracle:
    def test_dim3_game_matches_grid(self):
        u = [1.0, 2.0, 4.0]
        sol = solve_game(u)
        grid_value = maxmin_value_by_grid(np.diag(u))
        assert sol.value == pytest.approx(grid_value, abs=2e-3)
