"""Tests for the finite-offset slope calculus."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reading
from secantboost import make_builtin
from secantboost.vderiv import (
    MAX_ORDER,
    MIN_OFFSET,
    V_derivative,
    V_derivative_expansion,
    ZeroOffsetError,
    _checked_offset,
    _recursive_v_derivative,
    secant_slopes,
    v_derivative,
)

# Offsets drawn away from zero so chords never collapse to derivatives and
# away from huge magnitudes so the signed expansion sums stay well scaled.
offsets = st.floats(min_value=1e-3, max_value=10.0).flatmap(
    lambda mag: st.sampled_from([mag, -mag])
)
abscissas = st.floats(min_value=-3.0, max_value=3.0)


def logistic(z):
    return np.logaddexp(0.0, -np.asarray(z, dtype=np.float64)) / math.log(2.0)


def cubic(z):
    z = np.asarray(z, dtype=np.float64)
    return z**3 - 2.0 * z + 0.5


def _bits(x) -> bytes:
    # Bit-for-bit comparison: unlike ==, it tells -0.0 from 0.0.
    return np.asarray(x, dtype=np.float64).tobytes()


def _noise_floor(F, z, V):
    # Provable double-precision accumulation noise of a nested slope: the
    # signed sum touches 2**n loss values and is divided by the offset
    # product, so rounding dust is amplified by (sum of magnitudes)/|prod V|.
    import itertools

    n = len(V)
    if n == 0:
        return 1e-12
    mags = sum(
        abs(float(F(float(z) + sum(v for v, b in zip(V, picks) if b))))
        for picks in itertools.product((0, 1), repeat=n)
    )
    prod = 1.0
    for v in V:
        prod *= v
    return max(1e-12, 2.0 ** (n + 2) * np.finfo(float).eps * mags / abs(prod))


class TestVDerivative:
    def test_plain_secant_slope(self):
        # (F(1+2) - F(1)) / 2 for F = z**2 is (9 - 1) / 2 = 4.
        assert v_derivative(lambda z: z * z, 1.0, 2.0) == 4.0

    def test_negative_offset(self):
        # The slope through z and z+v is the same chord regardless of which
        # endpoint anchors it: (F(-1) - F(1)) / (-2) = 4 for F = z**3.
        assert v_derivative(lambda z: z**3, 1.0, -2.0) == pytest.approx(1.0)

    def test_zero_offset_rejected(self):
        with pytest.raises(ZeroOffsetError):
            v_derivative(lambda z: z, 0.0, 0.0)

    def test_denormal_offset_rejected(self):
        with pytest.raises(ZeroOffsetError):
            v_derivative(lambda z: z, 0.0, MIN_OFFSET / 2.0)

    def test_nonfinite_offset_rejected(self):
        with pytest.raises(ZeroOffsetError):
            v_derivative(lambda z: z, 0.0, math.inf)
        with pytest.raises(ZeroOffsetError):
            v_derivative(lambda z: z, 0.0, math.nan)

    @pytest.mark.parametrize("name", ["logistic", "exponential", "hinge", "spring"])
    def test_equals_float_expression_bit_for_bit(self, name):
        F = make_builtin(name)
        rng = np.random.default_rng(3)
        for z, v in zip(rng.uniform(-3, 3, size=200), rng.uniform(-2, 2, size=200)):
            z, v = float(z), float(v)
            assert _bits(v_derivative(F, z, v)) == _bits((F(z + v) - F(z)) / v)


class TestNestedSlope:
    def test_empty_offsets_is_evaluation(self):
        assert V_derivative(logistic, 0.0, []) == logistic(0.0)

    def test_singleton_matches_plain_slope(self):
        got = V_derivative(logistic, 0.3, [0.7])
        assert got == v_derivative(logistic, 0.3, 0.7)

    def test_order_two_closed_form(self):
        # For b = c = 1 at z = 0 and F = z**2 the four-point sum is
        # (F(0) - F(1) - F(1) + F(2)) / 1 = (0 - 1 - 1 + 4) = 2.
        assert V_derivative(lambda z: z * z, 0.0, [1.0, 1.0]) == pytest.approx(2.0)

    def test_quadratic_second_slope_is_constant(self):
        # The order-2 nested slope of z**2 equals 2 for every offset pair,
        # exactly as the second derivative would be.
        rng = np.random.default_rng(5)
        for _ in range(50):
            b, c = rng.uniform(0.1, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            got = V_derivative(lambda z: z * z, rng.uniform(-2, 2), [b, c])
            assert got == pytest.approx(2.0, rel=1e-9)

    def test_any_zero_offset_rejected(self):
        with pytest.raises(ZeroOffsetError):
            V_derivative(logistic, 0.0, [1.0, 0.0, 1.0])

    def test_order_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            V_derivative(logistic, 0.0, [1.0] * (MAX_ORDER + 1))
        with pytest.raises(ValueError, match="exceeds cap"):
            V_derivative_expansion(logistic, 0.0, [1.0] * (MAX_ORDER + 1))

    def test_polynomial_annihilation(self):
        # Nesting one more slope than the polynomial degree yields exactly
        # zero up to cancellation dust: each slope drops the degree by one.
        got = V_derivative(cubic, 0.4, [1.0, -0.5, 2.0, 0.25])
        assert got == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("order", [3, 4])
    def test_high_orders_match_recursion(self, order):
        rng = np.random.default_rng(order)
        for _ in range(200):
            z = float(rng.uniform(-3.0, 3.0))
            V = list(rng.uniform(1e-3, 10.0, size=order) * rng.choice([-1.0, 1.0], size=order))
            np.testing.assert_allclose(
                V_derivative(logistic, z, V),
                _recursive_v_derivative(logistic, z, V),
                rtol=1e-8,
                atol=_noise_floor(logistic, z, V),
            )

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_arrays_match_floats_elementwise(self, order):
        # One evaluator: on arrays each element rounds as the float call does.
        F = make_builtin("logistic")
        rng = np.random.default_rng(10 + order)
        z = rng.uniform(-3, 3, size=32)
        V = [rng.uniform(0.01, 2.0, size=32) * rng.choice([-1.0, 1.0], size=32)
             for _ in range(order)]
        got = V_derivative_expansion(F, z, V)
        for i in range(32):
            one = V_derivative_expansion(F, float(z[i]), [float(v[i]) for v in V])
            assert _bits(got[i]) == _bits(one)

    @given(
        z=abscissas,
        V=st.lists(offsets, min_size=0, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_expansion_matches_recursion(self, z, V):
        """The signed 2**n-point expansion equals the peeled recursion.

        The two algorithms touch the same loss values, so they can only
        disagree by accumulation rounding; the absolute floor below is that
        provable noise level (alternating sum of 2**n values, divided by the
        offset product), which only matters when several offsets are tiny.
        """
        expanded = V_derivative_expansion(logistic, z, V)
        recursed = _recursive_v_derivative(logistic, z, V)
        np.testing.assert_allclose(
            expanded, recursed, rtol=1e-8, atol=_noise_floor(logistic, z, V)
        )

    @given(
        z=abscissas,
        V=st.lists(offsets, min_size=2, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_offset_order_irrelevant(self, z, V):
        """Permuting the offsets never changes the nested slope value."""
        forward = V_derivative_expansion(logistic, z, V)
        backward = V_derivative_expansion(logistic, z, list(reversed(V)))
        np.testing.assert_allclose(
            forward, backward, rtol=1e-8, atol=_noise_floor(logistic, z, V)
        )


def shift_compose_check(F, z: float, zp: float, v: float) -> tuple[float, float]:
    """Both sides of the slope-of-shifted-loss identity.

    Returns (lhs, rhs) where lhs is the secant slope of F at z + zp and rhs
    rebuilds it from quantities anchored at z:

        lhs = D_v F(z + zp)
        rhs = D_v F(z) + zp * D_{zp, v} F(z)

    The identity is exact, so the two should agree to rounding error.
    """
    zp = _checked_offset(zp)
    lhs = v_derivative(F, float(z) + zp, v)
    rhs = v_derivative(F, z, v) + zp * V_derivative(F, z, [zp, v])
    return lhs, rhs


class TestShiftCompose:
    @given(z=abscissas, zp=offsets, v=offsets)
    @settings(max_examples=200, deadline=None)
    def test_identity_holds_to_rounding(self, z, zp, v):
        """Slope at a shifted abscissa rebuilds exactly from slopes at z."""
        lhs, rhs = shift_compose_check(logistic, z, zp, v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-10)

    def test_identity_exact_on_quadratic(self):
        lhs, rhs = shift_compose_check(lambda z: z * z, 0.5, 1.25, -0.75)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSecantSlopes:
    def test_matches_scalar_per_element(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-2, 2, size=64)
        v = rng.uniform(0.01, 1.0, size=64) * rng.choice([-1.0, 1.0], size=64)
        vec = secant_slopes(logistic, z, v)
        for i in range(64):
            scalar = v_derivative(lambda t: float(logistic(t)), z[i], v[i])
            np.testing.assert_allclose(vec[i], scalar, rtol=1e-12)

    @pytest.mark.parametrize("name", ["logistic", "exponential", "hinge", "spring"])
    def test_equals_array_expression_bit_for_bit(self, name):
        F = make_builtin(name)
        rng = np.random.default_rng(4)
        z = rng.uniform(-3, 3, size=500)
        v = rng.uniform(1e-9, 2.0, size=500) * rng.choice([-1.0, 1.0], size=500)
        assert _bits(secant_slopes(F, z, v)) == _bits((F(z + v) - F(z)) / v)

    @pytest.mark.parametrize("name", ["logistic", "square", "spring"])
    def test_given_values_bit_for_bit_and_no_read(self, name):
        # Loss values handed in give the same bits as reading them, and F is
        # not asked again.
        log = []
        F = make_builtin(name)
        rng = np.random.default_rng(9)
        z = rng.uniform(-3, 3, size=300)
        v = rng.uniform(1e-9, 2.0, size=300) * rng.choice([-1.0, 1.0], size=300)
        got = secant_slopes(reading(F, log), z, v, f_z=F(z), f_zv=F(z + v))
        assert log == []
        assert _bits(got) == _bits(secant_slopes(F, z, v))

    def test_given_values_keep_the_offset_checks(self):
        z, v = np.zeros(3), np.array([1.0, 0.0, 1.0])
        with pytest.raises(ZeroOffsetError):
            secant_slopes(logistic, z, v, f_z=logistic(z), f_zv=logistic(z + v))

    def test_expansion_reads_only_the_missing_values(self):
        log = []
        F = make_builtin("logistic")
        z, e, v = np.array([0.2, -0.4]), np.array([0.3, 0.1]), np.array([-0.5, 0.25])
        values = (F(z), None, F(z + e), None)
        got = V_derivative_expansion(reading(F, log), z, [e, v], values=values)
        assert [_bits(x) for x in log] == [_bits(z + v), _bits(z + e + v)]
        assert _bits(got) == _bits(V_derivative_expansion(F, z, [e, v]))
        with pytest.raises(ValueError, match="3 loss values given for a nested slope of order 2"):
            V_derivative_expansion(F, z, [e, v], values=values[:3])

    def test_rejects_any_zero_offset(self):
        z = np.zeros(3)
        v = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ZeroOffsetError):
            secant_slopes(logistic, z, v)

    def test_rejects_denormal_offset_naming_it(self):
        v = np.array([1.0, -MIN_OFFSET / 2.0, 1.0])
        with pytest.raises(ZeroOffsetError, match=repr(-MIN_OFFSET / 2.0)):
            secant_slopes(logistic, np.zeros(3), v)

    def test_rejects_nonfinite_offset(self):
        with pytest.raises(ZeroOffsetError):
            secant_slopes(logistic, np.zeros(2), np.array([1.0, np.nan]))

    def test_output_shape_and_dtype(self):
        out = secant_slopes(logistic, np.zeros(5), np.full(5, 0.5))
        assert out.shape == (5,)
        assert out.dtype == np.float64
