"""Tests for coefficient selection (smoothness shortcut and halving search)."""

from __future__ import annotations

import numpy as np
import pytest

from secantboost import (
    DiscontinuityCollisionError,
    V_derivative,
    alpha_from_smoothness,
    dataset_from_numeric,
    edge,
    epsilon_from,
    find_alpha,
    make_builtin,
    partial_weights,
    second_order_mean,
    table_loss,
    w2_from_alpha,
)
from secantboost.leverage import HALVING_CAP
from secantboost.offsets import sanitize_offset
from secantboost.vderiv import secant_slopes


def _state(m=8, seed=0):
    """A hand-rolled mid-boost state: margins, previous offsets, h values."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 2))
    y = rng.choice([-1.0, 1.0], size=m)
    S = dataset_from_numeric(X, y)
    margins = rng.uniform(-1.5, 1.5, size=m)
    v_prev = rng.uniform(0.05, 0.8, size=m) * rng.choice([-1.0, 1.0], size=m)
    hv = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.2, 1.0, size=m)
    return S, margins, v_prev, hv


def _affine_loss():
    # Linear on a range far wider than any probe: second slopes vanish.
    return table_loss("ramp", [-1e6, 1e6], [1e6 + 1.0, -1e6 + 1.0])


class TestEdge:
    def test_hand_computed(self):
        S = dataset_from_numeric(np.zeros((3, 1)), np.array([1.0, -1.0, 1.0]))
        w = np.array([1.0, 2.0, 3.0])
        hv = np.array([0.5, 0.5, -1.0])
        # mean of (1*1*0.5, 2*-1*0.5, 3*1*-1) = mean(0.5, -1, -3) = -7/6.
        assert edge(w, S, None, h_values=hv) == pytest.approx(-7.0 / 6.0)


class TestPartialWeights:
    def test_alpha_zero_reproduces_current_weights(self):
        """At alpha = 0 the prospective edges are the current ones, so the
        partial weights equal the live weight vector bit for bit."""
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state()
        current = -secant_slopes(F, margins, v_prev)
        trial = partial_weights(
            F, S, None, None, v_prev, 0.0, margins_prev=margins, h_values=hv
        )
        np.testing.assert_array_equal(trial, current)

    def test_matches_scalar_definition(self):
        F = make_builtin("spring", Q=3.0)
        S, margins, v_prev, hv = _state(seed=3)
        alpha = 0.17
        got = partial_weights(
            F, S, None, None, v_prev, alpha, margins_prev=margins, h_values=hv
        )
        y = S.labels
        for i in range(S.m):
            z = alpha * y[i] * hv[i] + margins[i]
            expected = -(F(z + v_prev[i]) - F(z)) / v_prev[i]
            assert got[i] == pytest.approx(expected, rel=1e-12)


class TestFindAlpha:
    def test_affine_loss_accepts_first_step(self):
        # Affine losses have constant secant slopes, so the very first trial
        # leaves the edge unchanged and delta_init is accepted as-is.
        F = _affine_loss()
        S, margins, v_prev, hv = _state(seed=5)
        w = -secant_slopes(F, margins, v_prev)
        eta = edge(w, S, None, h_values=hv)
        alpha = find_alpha(
            F, S, None, w, None, v_prev, 0.75, margins_prev=margins, h_values=hv
        )
        assert alpha == np.sign(eta) * 0.75

    def test_sign_follows_edge(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state(seed=8)
        w = -secant_slopes(F, margins, v_prev)
        eta = edge(w, S, None, h_values=hv)
        assert eta != 0.0
        alpha = find_alpha(
            F, S, None, w, None, v_prev, 1.0, margins_prev=margins, h_values=hv
        )
        assert np.sign(alpha) == np.sign(eta)

    def test_accepted_step_keeps_edge_close(self):
        F = make_builtin("spring", Q=7.0)
        S, margins, v_prev, hv = _state(seed=13)
        w = -secant_slopes(F, margins, v_prev)
        eta = edge(w, S, None, h_values=hv)
        alpha = find_alpha(
            F, S, None, w, None, v_prev, 1.0, margins_prev=margins, h_values=hv
        )
        trial = partial_weights(
            F, S, None, None, v_prev, alpha, margins_prev=margins, h_values=hv
        )
        assert abs(eta - edge(trial, S, None, h_values=hv)) < abs(eta)

    def test_jump_on_an_edge_exhausts_the_cap(self):
        # A 0/1 margin sitting exactly on the jump: any positive step lands
        # in the flat region, zeroing the trial weights, so the edge moves by
        # its full magnitude at every halving and the cap must trip.
        F = make_builtin("zero_one")
        S = dataset_from_numeric(np.zeros((1, 1)), np.array([1.0]))
        margins = np.array([0.0])
        v_prev = np.array([1.0])
        hv = np.array([1.0])
        w = -secant_slopes(F, margins, v_prev)  # = +1: the jump is live
        with pytest.raises(DiscontinuityCollisionError, match=str(HALVING_CAP)):
            find_alpha(F, S, None, w, None, v_prev, 1.0, margins_prev=margins, h_values=hv)

    def test_zero_edge_rejected(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state()
        with pytest.raises(ValueError, match="zero edge"):
            find_alpha(
                F, S, None, np.zeros(S.m), None, v_prev, 1.0,
                margins_prev=margins, h_values=hv,
            )

    def test_delta_init_validation(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state()
        w = -secant_slopes(F, margins, v_prev)
        with pytest.raises(ValueError, match="delta_init"):
            find_alpha(
                F, S, None, w, None, v_prev, 0.0, margins_prev=margins, h_values=hv
            )


class TestSecondOrderMean:
    def test_matches_per_example_nested_slopes(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state(seed=21)
        e = 0.3 * S.labels * hv
        M = float(np.max(np.abs(hv)))
        got = second_order_mean(F, margins, e, v_prev, hv, M)
        per_example = [
            (hv[i] / M) ** 2 * V_derivative(F, margins[i], [e[i], v_prev[i]])
            for i in range(S.m)
        ]
        assert got == pytest.approx(np.mean(per_example), rel=1e-9)

    @pytest.mark.parametrize("name", ["logistic", "square", "spring"])
    def test_equals_four_term_mean_bit_for_bit(self, name):
        # The order-2 sum written out by hand, with e's zero entry replaced
        # as second_order_mean replaces it.
        F = make_builtin(name)
        S, z, v, hv = _state(m=64, seed=17)
        e = 0.3 * S.labels * hv
        e[5] = 0.0
        M = float(np.max(np.abs(hv)))
        got = second_order_mean(F, z, e, v, hv, M)
        e[5] = sanitize_offset(0.0, 1e-12, seed=5)
        second = (F(z) - F(z + v) - F(z + e) + F(z + e + v)) / (e * v)
        assert got == float(np.mean((hv / M) ** 2 * second))

    def test_sub_min_offset_entries_are_sanitized(self):
        # A step that underflows below MIN_OFFSET without reaching zero is
        # replaced like a zero, not rejected as a zero offset.
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state(seed=2)
        e = 0.1 * np.ones(S.m)
        e[3] = 1e-310
        got = second_order_mean(F, margins, e, v_prev, hv, 1.0)
        e[3] = 0.0
        assert got == second_order_mean(F, margins, e, v_prev, hv, 1.0)

    def test_zero_entries_are_sanitized(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state(seed=2)
        e = 0.1 * np.ones(S.m)
        e[3] = 0.0  # would divide by zero without the fallback
        got = second_order_mean(F, margins, e, v_prev, hv, 1.0)
        assert np.isfinite(got)


class TestW2FromAlpha:
    def test_positive_for_curved_loss(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state(seed=31)
        w = -secant_slopes(F, margins, v_prev)
        eta = edge(w, S, None, h_values=hv)
        M = float(np.max(np.abs(hv)))
        w2 = w2_from_alpha(
            F, S, None, None, v_prev, 0.2, M, eta=eta,
            margins_prev=margins, h_values=hv,
        )
        assert w2 > 0.0

    def test_flat_loss_falls_back_to_halving(self):
        """Vanishing second slopes trigger the W-halving fallback, which
        returns the largest power of 1/2 certifying the given alpha.  A
        constant table keeps the second differences at exact float zero
        (a wide affine ramp would leave ulp-scale dust instead)."""
        F = table_loss("flat", [-1e6, 1e6], [3.5, 3.5])
        S, margins, v_prev, hv = _state(seed=7)
        hv = np.ones(S.m)  # M = 1 keeps the arithmetic transparent
        w2 = w2_from_alpha(
            F, S, None, None, v_prev, 0.3, 1.0, eta=1.0,
            margins_prev=margins, h_values=hv,
        )
        assert w2 == 1.0  # |0.3| <= 1/(1*1) already
        w2 = w2_from_alpha(
            F, S, None, None, v_prev, 8.0, 1.0, eta=1.0,
            margins_prev=margins, h_values=hv,
        )
        assert w2 == 0.125  # halved until |8| <= 1/W

    def test_validation(self):
        F = make_builtin("logistic")
        S, margins, v_prev, hv = _state()
        with pytest.raises(ValueError, match="alpha"):
            w2_from_alpha(
                F, S, None, None, v_prev, 0.0, 1.0, eta=1.0,
                margins_prev=margins, h_values=hv,
            )
        with pytest.raises(ValueError, match="M must be positive"):
            w2_from_alpha(
                F, S, None, None, v_prev, 0.1, 0.0, eta=1.0,
                margins_prev=margins, h_values=hv,
            )


class TestEpsilonFrom:
    def test_worked_example(self):
        # b_sup = 1/(1*1) = 1; alpha = 1/4 gives slack 4 - 1 = 3.
        assert epsilon_from(0.25, 1.0, 1.0, 1.0) == pytest.approx(3.0)

    def test_alpha_at_or_beyond_bound_rejected(self):
        with pytest.raises(ValueError):
            epsilon_from(1.0, 1.0, 1.0, 1.0)  # |alpha| == b_sup
        with pytest.raises(ValueError):
            epsilon_from(2.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            epsilon_from(0.0, 1.0, 1.0, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="w2_bar"):
            epsilon_from(0.1, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="M must be positive"):
            epsilon_from(0.1, 1.0, 1.0, 0.0)


class TestAlphaFromSmoothness:
    def test_worked_example(self):
        # w2_bar = 2*beta = 0.5; alpha = 1/(2*1.1*1*0.5) = 1/1.1.
        lev = alpha_from_smoothness(1.0, 0.25, 1.0, 0.1)
        assert lev.alpha == pytest.approx(1.0 / 1.1)
        assert lev.w2_bar == 0.5
        assert lev.epsilon == 0.1
        assert lev.route == "smoothness"

    def test_alpha_scales_inverse_with_confidence_cap(self):
        a1 = alpha_from_smoothness(0.4, 0.25, 2.0, 0.1).alpha
        a2 = alpha_from_smoothness(0.4, 0.25, 4.0, 0.1).alpha
        assert a1 == pytest.approx(4.0 * a2)  # alpha ~ 1/M^2

    def test_validation(self):
        with pytest.raises(ValueError, match="zero edge"):
            alpha_from_smoothness(0.0, 0.25, 1.0, 0.1)
        with pytest.raises(ValueError, match="beta"):
            alpha_from_smoothness(1.0, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="epsilon"):
            alpha_from_smoothness(1.0, 0.25, 1.0, 0.0)
