"""Tests for chord-anchored divergences and chord-over-loss maxima."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import logistic_hole, logistic_then
from secantboost import (
    ConfigError,
    LossSpec,
    bregman_secant,
    make_builtin,
    obi,
    offset_feasible,
    q_star,
    table_loss,
)
from secantboost.bregman import DEFAULT_GRID, REFINE_MARGIN, _certifier
from secantboost.losses import LOGISTIC_BETA
from secantboost.vderiv import v_derivative
from test_offsets import _certified, _Recorder, _ref_offset_feasible

offsets = st.floats(min_value=0.01, max_value=2.0).flatmap(
    lambda mag: st.sampled_from([mag, -mag])
)
abscissas = st.floats(min_value=-2.0, max_value=2.0)


def _square_spec():
    return make_builtin("square")


class TestObi:
    def test_parabola_chord_gap(self):
        # For F = (1-z)^2, the line through (0, F(0)) and (2, F(2)) is the
        # constant 1; its maximum excess over F on [0, 2] is at z=1: 1 - 0 = 1.
        F = _square_spec()
        assert obi(F, 0.0, 2.0, 2.0) == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_chord_is_zero(self):
        F = _square_spec()
        assert obi(F, 0.7, 0.7, 1.5) == 0.0

    def test_nonnegative_always(self):
        # The segment includes the anchor a where the line touches the loss,
        # so the grid maximum can never be negative.
        F = make_builtin("spring", Q=5.0)
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = rng.uniform(-2, 2, size=3)
            if a == b:
                continue
            assert obi(F, a, b, c) >= 0.0

    def test_refinement_never_shrinks_the_maximum(self):
        """Grids count subintervals, so an integer refinement keeps every
        coarse abscissa and the grid maximum is nondecreasing."""
        F = make_builtin("spring", Q=50.0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b, c = rng.uniform(-1, 1, size=3)
            if a == b:
                continue
            coarse = obi(F, a, b, c, grid_points=128)
            fine = obi(F, a, b, c, grid_points=512)
            assert fine >= coarse - 1e-12

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            obi(_square_spec(), 0.0, 1.0, 1.0, grid_points=1)

    def test_convex_chord_dominates_between_endpoints(self):
        # Convexity puts the chord above the loss on the whole segment, so
        # the gap at the midpoint is strictly positive for a strict parabola.
        F = _square_spec()
        gap = obi(F, -1.0, 1.0, 1.0)
        assert gap == pytest.approx(1.0, rel=1e-9)  # (F(-1)+F(1))/2 - F(0) ... at z=1


class TestBregmanSecant:
    def test_quadratic_closed_form(self):
        # For F = (1-z)^2 the chord slope through z, z+v is F'(z) + v, so
        # B(zp||z) = (zp-z)^2 - v (zp - z) exactly.
        F = _square_spec()
        for z, zp, v in [(0.0, 1.0, 0.5), (-1.0, 2.0, -0.25), (0.3, 0.3, 1.0)]:
            expected = (zp - z) ** 2 - v * (zp - z)
            assert bregman_secant(F, zp, z, v) == pytest.approx(expected, abs=1e-12)

    def test_anchor_gap_is_zero(self):
        F = make_builtin("logistic")
        assert bregman_secant(F, 0.7, 0.7, 0.3) == 0.0

    @given(z=abscissas, zp=abscissas, v=offsets)
    @settings(max_examples=150, deadline=None)
    def test_convex_lower_bound(self, z, zp, v):
        """For convex losses the chord-anchored gap is bounded below by the
        chord's own overshoot between its endpoints."""
        F = make_builtin("logistic")
        q = q_star(F, z, zp, v, grid_points=2048)
        assert bregman_secant(F, zp, z, v) >= -q - 1e-9

    def test_nonconvex_lower_bound_spring(self):
        F = make_builtin("spring", Q=20.0)
        rng = np.random.default_rng(11)
        for _ in range(300):
            z = rng.uniform(-1.5, 1.5)
            zp = z + rng.uniform(0.01, 0.5) * rng.choice([-1.0, 1.0])
            v = rng.uniform(0.01, 0.3) * rng.choice([-1.0, 1.0])
            q = q_star(F, z, zp, v, grid_points=4096)
            assert bregman_secant(F, zp, z, v) >= -q - 1e-6


class TestQStar:
    def test_convex_ignores_target(self):
        # With a convex loss the spanned segment is the chord's own, so the
        # target abscissa plays no role.
        F = make_builtin("logistic")
        a = q_star(F, 0.5, -3.0, 0.4)
        b = q_star(F, 0.5, 10.0, 0.4)
        assert a == b

    def test_nonconvex_uses_target_segment(self):
        F = make_builtin("spring", Q=3.0)
        near = q_star(F, 0.0, 0.05, 0.1, grid_points=2048)
        far = q_star(F, 0.0, 1.0, 0.1, grid_points=2048)
        assert far >= near

    def test_quadratic_value(self):
        # Chord through z, z+v over [z, z+v]: max of line-over-parabola is
        # v^2/4 at the midpoint.
        F = _square_spec()
        got = q_star(F, 0.0, 0.0, 2.0, grid_points=4096)
        assert got == pytest.approx(1.0, rel=1e-6)


class TestOffsetFeasible:
    def test_accepts_within_budget(self):
        F = make_builtin("logistic")
        assert offset_feasible(F, 0.0, 1.0, 0.1, z_limit=1.0)

    def test_rejects_over_budget(self):
        F = _square_spec()
        # q_star for v=2 at z=0 is 1.0, far above the budget.
        assert not offset_feasible(F, 0.0, 0.0, 2.0, z_limit=1e-3)

    def test_borderline_decisions_refine(self):
        # A budget within REFINE_MARGIN of the true maximum forces the finer
        # grid; the decision must then match the fine-grid comparison.
        F = make_builtin("spring", Q=30.0)
        e_t, e_prev, v = 0.01, 0.25, 0.07
        q_fine = q_star(F, e_t, e_prev, v, grid_points=512 * 4)
        assert offset_feasible(F, e_t, e_prev, v, z_limit=q_fine + 1e-9) == (
            q_star(F, e_t, e_prev, v, 512 * 4) <= q_fine + 1e-9
        )

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            offset_feasible(_square_spec(), 0.0, 1.0, 0.1, z_limit=0.0)

    @pytest.mark.parametrize("is_convex", [False, True])
    def test_nan_between_finite_edges_raises(self, is_convex):
        # NaN compares false with any budget, so an unchecked NaN distortion
        # would read as "infeasible" and stop the run under the wrong cause.
        F = logistic_hole(0.30, 0.31, is_convex=is_convex)
        assert np.isfinite(F(np.array([0.0, 0.5, 1.0]))).all()
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=") as exc:
            offset_feasible(F, 0.0, 1.0, 0.5, z_limit=1.0)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    @pytest.mark.parametrize("is_convex", [False, True])
    def test_inf_between_finite_edges_raises(self, is_convex):
        # inf in the loss is -inf in the chord gap, which a plain grid maximum
        # passes over: the offset would read as feasible.
        F = logistic_hole(0.30, 0.31, is_convex=is_convex, bad=math.inf)
        with pytest.raises(ConfigError, match="returned inf at z="):
            q_star(F, 0.0, 1.0, 0.5)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned inf at z=") as exc:
            offset_feasible(F, 0.0, 1.0, 0.5, z_limit=1.0)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the line
    def test_overflowing_chord_raises(self):
        def cliff(z):
            return np.where(z < 0.0, 1.5e308, -1.5e308)

        F = LossSpec("cliff", cliff, is_convex=False)
        with pytest.raises(ConfigError, match="'cliff'.*chord arithmetic overflowed"):
            offset_feasible(F, -1.0, 1.0, 1.5, z_limit=0.1)


def _certificate_cases():
    """Seeded (loss, a, v) on both convex losses that declare beta: |a| up to
    1e3, |v| log-uniform in [1e-12, 20], both signs, plus the square loss at
    chords whose midpoint lies on the grid (its gap there is exactly beta*v^2/8)."""
    rng = np.random.default_rng(31337)
    losses = (make_builtin("logistic"), make_builtin("square"))
    for i in range(3000):
        a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 3.0))
        v = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, np.log10(20.0)))
        yield losses[i % 2], a, v
    for a, v in [(0.0, 2.0), (-1.0, 4.0), (3.0, -4.0), (0.5, 1.0), (-7.0, 16.0)]:
        yield losses[1], a, v


class TestCurvatureCertificate:
    """beta*v^2/8 plus a rounding allowance bounds the chord's own gap over
    the whole segment, so it stands in for any grid maximum."""

    def test_certificate_bounds_every_grid(self):
        n = 0
        for F, a, v in _certificate_cases():
            cert = q_star(F, a, a, v, certify_below=math.inf)
            assert math.isfinite(cert), (F.name, a, v)
            for grid_points in (512, 2048, 8192):
                assert q_star(F, a, a, v, grid_points) <= cert, (F.name, a, v, grid_points)
            n += 1
        assert n >= 3000

    def test_budget_at_the_certificate_decides_as_the_grid(self):
        """Budgets a few ulps either side of cert + REFINE_MARGIN put the
        certificate right at its acceptance threshold: taken or not, the
        decision equals the reference's grid decision."""
        decided = {"certified": 0, "grid": 0}
        for F, a, v in _certificate_cases():
            cert = q_star(F, a, a, v, certify_below=math.inf)
            center = cert + REFINE_MARGIN
            budgets = [center]
            for direction in (-math.inf, math.inf):
                z = center
                for _ in range(2):
                    z = float(np.nextafter(z, direction))
                    budgets.append(z)
            for z_limit in budgets:
                new, ref = _Recorder(F), _Recorder(F)
                got = offset_feasible(new.loss, a, a, v, z_limit)
                assert got == _ref_offset_feasible(ref.loss, a, a, v, z_limit), (F.name, a, v)
                decided["certified" if _certified(F, new.log, ref.log) else "grid"] += 1
        assert min(decided.values()) >= 1000, decided

    def test_only_convex_losses_declaring_beta_certify(self):
        """Of the losses that declare no curvature_bound: spring certifies
        only through its minorant."""
        spring = make_builtin("spring", Q=40.0)
        for F in (
            make_builtin("exponential"),  # convex, no beta
            dataclasses.replace(spring, minorant=None),  # no beta, not convex
            logistic_then(5.0, smoothness_beta=0.25),  # beta, not convex
        ):
            q = q_star(F, 0.1, 0.2, 0.05, certify_below=math.inf)
            assert q == q_star(F, 0.1, 0.2, 0.05), F.name
        q = q_star(spring, 0.1, 0.2, 0.05, certify_below=math.inf)
        assert q > q_star(spring, 0.1, 0.2, 0.05)

    def test_without_the_keyword_the_grid_maximum_is_returned(self):
        F = make_builtin("square")
        # The grid maximum of the parabola sits exactly at v^2/4 at the midpoint.
        assert q_star(F, 0.0, 0.0, 2.0) == 1.0
        assert q_star(F, 0.0, 0.0, 2.0, certify_below=math.inf) > 1.0

    def test_nan_certificate_falls_back_to_the_grid(self):
        # A NaN endpoint makes the certificate NaN; the grid then names it.
        F = dataclasses.replace(logistic_then(math.nan, smoothness_beta=0.25), is_convex=True)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z="):
            offset_feasible(F, 0.0, 1.0, 0.5, z_limit=1.0)


def _bounded_segments():
    """Seeded (z, zp, v) non-convex segments: across the clip point q = -2 of
    clipped_logistic, spans of 1e-9 and spans of 10 to 30, both directions,
    with v a uniform fraction of zp - z and every tenth v the whole gap (the
    chord's own segment)."""
    rng = np.random.default_rng(4242)
    for i in range(240):
        sign = float(rng.choice([-1.0, 1.0]))
        kind = i % 3
        if kind == 0:
            z = -2.0 - sign * float(rng.uniform(1e-6, 1.5))
            zp = -2.0 + sign * float(rng.uniform(1e-6, 1.5))
        elif kind == 1:
            z = float(rng.uniform(-5.0, 5.0))
            zp = z + sign * 1e-9
        else:
            z = float(rng.uniform(-15.0, 5.0))
            zp = z + sign * float(rng.uniform(10.0, 30.0))
        v = zp - z if i % 10 == 0 else (zp - z) * float(rng.uniform(0.0, 1.0))
        yield z, zp, v


class TestOneSidedCertificate:
    """For a loss with F - beta*z^2/2 concave, the coarse grid's maximum plus
    beta*h^2/8 plus rounding bounds the chord gap on the whole segment."""

    def test_certificate_bounds_fine_grids(self, bounded_losses):
        seen = {"own_segment": 0, "coarse": 0, "tight": 0}
        for F in bounded_losses:
            for z, zp, v in _bounded_segments():
                cert = q_star(F, z, zp, v, certify_below=math.inf)
                assert math.isfinite(cert), (F.name, z, zp, v)
                fine = q_star(F, z, zp, v, 1 << 14)
                assert q_star(F, z, zp, v) <= cert and fine <= cert, (F.name, z, zp, v)
                h = abs(zp - z) / (1 if z + v == zp else 64)
                # Not vacuous: the 64-subinterval grid is part of the fine one.
                assert cert - fine <= F.curvature_bound * h * h / 8.0 + 1e-12, (F.name, z, zp, v)
                seen["own_segment" if z + v == zp else "coarse"] += 1
                seen["tight"] += cert - fine < 1e-6
        assert min(seen.values()) >= 40, seen

    def test_array_calls_equal_the_float_calls(self, bounded_losses):
        rows = list(_bounded_segments())
        z, zp, v = (np.array(col) for col in zip(*rows))
        for F in bounded_losses:
            grid = q_star(F, z, zp, v)
            certified = 0
            for z_limit in (1e-7, 1e-4, 1e-2):
                want = [q_star(F, *row, certify_below=z_limit) for row in rows]
                assert _same_bytes(q_star(F, z, zp, v, certify_below=z_limit), want)
                certified += int(np.count_nonzero(np.array(want) != grid))
                want = [offset_feasible(F, *row, z_limit) for row in rows]
                got = offset_feasible(F, z, zp, v, z_limit)
                assert _same_bytes(got, want) and 0 < got.sum() < got.size, F.name
            assert 100 <= certified <= 400, (F.name, certified)


def _spring_segments():
    """Seeded (z, zp, v) spring segments: spans log-uniform in [1e-9, 3],
    both directions, v a uniform fraction of zp - z and every tenth v the
    whole gap."""
    rng = np.random.default_rng(2121)
    for i in range(300):
        z = float(rng.uniform(-3.0, 3.0))
        zp = z + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, 0.5))
        v = zp - z if i % 10 == 0 else (zp - z) * float(rng.uniform(0.0, 1.0))
        yield z, zp, v


class TestMinorantCertificate:
    """spring declares logistic (beta = 1/4) as its minorant: the grid
    maximum of the line minus logistic on 64 subintervals, plus beta*h^2/8
    plus rounding, bounds spring's chord gap on the whole segment."""

    @pytest.mark.parametrize("Q", [40.0, 500.0])
    def test_certificate_bounds_fine_grids(self, Q):
        F = make_builtin("spring", Q=Q)
        for z, zp, v in _spring_segments():
            cert = q_star(F, z, zp, v, certify_below=math.inf)
            assert math.isfinite(cert), (z, zp, v)
            fine = q_star(F, z, zp, v, 8192)
            assert q_star(F, z, zp, v) <= cert and fine <= cert, (z, zp, v)
            # Not vacuous: line - logistic exceeds line - spring by at most
            # the bump's height 1/Q.
            h = abs(zp - z) / 64
            assert cert - fine <= 1.0 / Q + LOGISTIC_BETA * h * h / 8.0 + 1e-5, (z, zp, v)

    @pytest.mark.parametrize("Q", [40.0, 500.0])
    def test_array_calls_equal_the_float_calls(self, Q):
        F = make_builtin("spring", Q=Q)
        rows = list(_spring_segments())
        z, zp, v = (np.array(col) for col in zip(*rows))
        grid = q_star(F, z, zp, v)
        certified = 0
        for z_limit in (1e-7, 1e-4, 1e-2):
            want = [q_star(F, *row, certify_below=z_limit) for row in rows]
            assert _same_bytes(q_star(F, z, zp, v, certify_below=z_limit), want)
            certified += int(np.count_nonzero(np.array(want) != grid))
            want = [offset_feasible(F, *row, z_limit) for row in rows]
            got = offset_feasible(F, z, zp, v, z_limit)
            assert _same_bytes(got, want) and 0 < got.sum() < got.size, Q
        assert 100 <= certified <= 800, (Q, certified)


def _offset_at(F, e_t: float, sign: float, target: float) -> float:
    """The offset (sign's direction) whose 512-point distortion at e_t is
    target, to bisection precision: the chord gap grows with |v|."""
    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if q_star(F, e_t, e_t, sign * mid) < target else (lo, mid)
    return sign * hi


def _array_rows(F, seed: int, z_limit: float):
    """Seeded (e_t, e_prev, v) rows for one budget, in both gap directions:
    offsets from 1e-6 to 2 (certified well inside the budget, or over it and
    decided on the grid), offsets whose distortion lies within REFINE_MARGIN
    of the budget (the refine), edges a few ulps apart, and v = 0."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(200):
        e_t = float(rng.uniform(-3.0, 3.0))
        sign = float(rng.choice([-1.0, 1.0]))
        kind = i % 5
        if kind in (0, 1):
            e_prev = e_t + sign * float(10.0 ** rng.uniform(-6.0, 0.3))
            v = (e_prev - e_t) * float(rng.uniform(0.0, 1.0))
        elif kind == 2:
            e_prev = e_t + sign * 2.0
            v = _offset_at(F, e_t, sign, z_limit + float(rng.uniform(-0.9, 0.9)) * REFINE_MARGIN)
        elif kind == 3:
            e_prev = e_t
            for _ in range(int(rng.choice([1, 2, 3, 17, 200]))):
                e_prev = float(np.nextafter(e_prev, sign * np.inf))
            v = (e_t + (e_prev - e_t) / 64) - e_t
        else:
            e_prev, v = e_t + sign, 0.0
        rows.append((e_t, e_prev, v))
    return tuple(np.array(col) for col in zip(*rows))


def _same_bytes(got, want) -> bool:
    return isinstance(got, np.ndarray) and got.tobytes() == np.array(want).tobytes()


class TestArrayRequests:
    """Arrays of requests give, row by row, the float calls' results bit for bit."""

    @pytest.mark.parametrize("name,z_limit", [("logistic", 1e-3), ("square", 1e-2)])
    def test_rows_equal_the_float_calls(self, name, z_limit):
        F = make_builtin(name)
        e_t, e_prev, v = _array_rows(F, seed=len(name), z_limit=z_limit)
        rows = list(zip(e_t.tolist(), e_prev.tolist(), v.tolist()))
        b = e_t + v
        for c in (b, e_prev):
            for certify_below in (-math.inf, z_limit):
                want = [obi(F, a_i, a_i + v_i, c_i, certify_below=certify_below)
                        for (a_i, _, v_i), c_i in zip(rows, c.tolist())]
                assert _same_bytes(obi(F, e_t, b, c, certify_below=certify_below), want)
        for certify_below in (-math.inf, z_limit):
            want = [q_star(F, *row, certify_below=certify_below) for row in rows]
            assert _same_bytes(q_star(F, e_t, e_prev, v, certify_below=certify_below), want)
        want = [offset_feasible(F, *row, z_limit) for row in rows]
        assert _same_bytes(offset_feasible(F, e_t, e_prev, v, z_limit), want)

        # The batch holds every kind of decision the float path takes.
        first = [q_star(F, *row, certify_below=z_limit) for row in rows]
        grid = [q_star(F, *row) for row in rows]
        seen = {
            "certified": sum(q != g for q, g in zip(first, grid)),
            "refined": sum(abs(q - z_limit) < REFINE_MARGIN for q in first),
            "feasible": sum(want),
            "infeasible": len(want) - sum(want),
            "degenerate": int(np.count_nonzero(v == 0.0)),
        }
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("name", ["exponential", "table"])
    def test_rows_without_a_certifier_equal_the_float_calls(self, name):
        """A budget asks for a certificate that a loss with no curvature bound
        and no minorant cannot give: every row, degenerate ones included,
        is then the float call's grid maximum."""
        F = (make_builtin(name) if name == "exponential" else
             table_loss("table", [-3.0, -1.0, 0.0, 0.5, 2.0], [3.0, 1.6, 0.9, 0.7, 0.0]))
        assert _certifier(F) is None
        z_limit = 1e-2
        e_t, e_prev, v = _array_rows(F, seed=len(name), z_limit=z_limit)
        e_t[-3:], e_prev[-3:], v[-3:] = 0.5, -1.0, 0.0  # a == b at 0.5, a table knot
        rows = list(zip(e_t.tolist(), e_prev.tolist(), v.tolist()))
        b = e_t + v
        for c in (b, e_prev):
            want = [obi(F, a_i, a_i + v_i, c_i, certify_below=z_limit)
                    for (a_i, _, v_i), c_i in zip(rows, c.tolist())]
            assert want == [obi(F, a_i, a_i + v_i, c_i) for (a_i, _, v_i), c_i in zip(rows, c.tolist())]
            assert _same_bytes(obi(F, e_t, b, c, certify_below=z_limit), want)
        want = [q_star(F, *row, certify_below=z_limit) for row in rows]
        assert _same_bytes(q_star(F, e_t, e_prev, v, certify_below=z_limit), want)
        assert np.count_nonzero(v == 0.0) >= 40 and sum(q > 0.0 for q in want) >= 50
        want = [offset_feasible(F, *row, z_limit) for row in rows]
        assert _same_bytes(offset_feasible(F, e_t, e_prev, v, z_limit), want)

    def test_non_convex_segments_equal_the_float_calls(self):
        F = make_builtin("spring", Q=40.0)
        rng = np.random.default_rng(4)
        z = rng.uniform(-2.0, 2.0, 50)
        zp = z + rng.uniform(-1.0, 1.0, 50)
        v = (zp - z) * rng.uniform(0.0, 1.0, 50)
        rows = list(zip(z.tolist(), zp.tolist(), v.tolist()))
        assert _same_bytes(q_star(F, z, zp, v, 64), [q_star(F, *row, 64) for row in rows])
        assert _same_bytes(
            offset_feasible(F, z, zp, v, 1e-3), [offset_feasible(F, *row, 1e-3) for row in rows]
        )

    def test_feasibility_makes_one_call_and_one_refine_call(self, monkeypatch):
        import secantboost.bregman as bregman

        F = make_builtin("square")
        z_limit = 1e-2
        e_t, e_prev, v = _array_rows(F, seed=6, z_limit=z_limit)
        calls = []

        def counted(F, z, *args, **kwargs):
            calls.append(z.size)
            return q_star(F, z, *args, **kwargs)

        monkeypatch.setattr(bregman, "q_star", counted)
        offset_feasible(F, e_t, e_prev, v, z_limit)
        assert len(calls) == 2 and calls[0] == e_t.size and 0 < calls[1] < e_t.size

    def test_nan_at_an_array_point_is_named(self):
        F = dataclasses.replace(logistic_then(math.nan, smoothness_beta=0.25), is_convex=True)
        a = np.array([0.0, 0.1, 0.2])
        b = np.array([0.05, 0.5, 0.25])
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=0.5;"):
            obi(F, a, b, b, certify_below=1.0)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=0.5;"):
            offset_feasible(F, a, b, b - a, z_limit=1.0)

    def test_nan_on_a_row_grid_is_named(self):
        F = logistic_hole(0.30, 0.31, is_convex=True)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=") as exc:
            offset_feasible(F, np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                            np.array([0.1, 0.5]), z_limit=1.0)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in the line
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the chord's rise
    def test_overflowing_chord_raises(self):
        def cliff(z):
            return np.where(z < 0.0, 1.5e308, -1.5e308)

        F = LossSpec("cliff", cliff, is_convex=False)
        with pytest.raises(ConfigError, match="'cliff'.*offset 1.5 at z=-1.0;.*overflowed"):
            offset_feasible(F, np.array([-1.0, -1.0]), np.array([1.0, -0.5]),
                            np.array([1.5, 0.25]), z_limit=0.1)


def convex_identity_residual(
    F, z: float, v: float, r: float, grid_points: int = DEFAULT_GRID
) -> float:
    """Residual of the conjugate identity at the chord slope, minus r.

    For convex F with s the slope of the chord through z and z+v,

        F(z) + F*(s) - z * s

    equals the chord's own OBI; the conjugate F*(s) = sup_t (t s - F(t)) is
    evaluated on a wide grid around z.  Returns the identity value minus r so
    callers can assert near-zero residuals directly.
    """
    if not F.is_convex:
        raise ValueError("conjugate identity requires a convex loss")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    z = float(z)
    s = v_derivative(F, z, v)
    ts = np.linspace(z - 50.0, z + 50.0, grid_points + 1)
    conj = float(np.max(ts * s - F(ts)))
    return float(F(z)) + conj - z * s - float(r)


class TestConjugateIdentity:
    def test_residual_small_for_logistic(self):
        # The conjugate evaluated at a realized chord slope reproduces the
        # chord's own overshoot; both sides are grid maxima over comparable
        # ranges, so they agree to grid resolution.
        F = make_builtin("logistic")
        for z, v in [(0.0, 0.5), (1.0, -0.8), (-2.0, 0.3)]:
            r = obi(F, z, z + v, z + v, grid_points=8192)
            resid = convex_identity_residual(F, z, v, r, grid_points=1 << 17)
            assert abs(resid) < 1e-3

    def test_requires_convexity(self):
        with pytest.raises(ValueError, match="convex"):
            convex_identity_residual(make_builtin("spring", Q=2.0), 0.0, 0.5, 0.0)
