"""Tests for the loss registry and loss metadata."""

from __future__ import annotations

import math

import numpy as np
import pytest

import secantboost.losses as losses_module
from conftest import logistic_hole
from secantboost import (
    Ensemble,
    dataset_from_numeric,
    LossSpec,
    empirical_loss,
    inject_label_noise,
    load_table_loss,
    make_builtin,
    partial_weights,
    register_loss,
    registered_names,
    second_order_mean,
    secant_slopes,
    table_loss,
)
from secantboost.errors import ConfigError
from secantboost.losses import BUILTIN_NAMES, LOGISTIC_BETA, SQUARE_BETA


class TestBuiltinValues:
    def test_logistic_anchor_values(self):
        F = make_builtin("logistic")
        assert F(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        np.testing.assert_allclose(F(np.array([100.0])), [0.0], atol=1e-40)
        # At very negative margins the loss is within rounding of -z.
        assert F(-50.0) == pytest.approx(50.0, rel=1e-15)

    def test_exponential_and_square(self):
        assert make_builtin("exponential")(-1.0) == pytest.approx(math.e)
        assert make_builtin("square")(3.0) == 4.0

    def test_hinge(self):
        F = make_builtin("hinge")
        np.testing.assert_array_equal(F(np.array([-1.0, 1.0, 2.0])), [2.0, 0.0, 0.0])

    def test_zero_one_jump_at_origin(self):
        F = make_builtin("zero_one")
        np.testing.assert_array_equal(F(np.array([-0.5, 0.0, 1e-12])), [1.0, 1.0, 0.0])
        assert F.discontinuities == ((0.0, 1.0),)
        assert F.disc == 1.0

    def test_scalar_in_float_out(self):
        for name in ("logistic", "square", "zero_one"):
            out = make_builtin(name)(0.25)
            assert isinstance(out, float)

    def test_array_in_array_out(self):
        out = make_builtin("logistic")(np.linspace(-1, 1, 7))
        assert isinstance(out, np.ndarray)
        assert out.shape == (7,)

    def test_evaluate_receives_float64_arrays(self):
        # Calling the spec adapts every query, for user losses as for builtins.
        seen = []

        def evaluate(z):
            seen.append((type(z), z.dtype, z.shape))
            return np.abs(z)

        F = LossSpec("abs", evaluate, is_convex=True)
        for z in (2, -0.5, np.float32(1.5)):
            out = F(z)
            assert type(out) is float and out == abs(float(z))
        out = F([1, -2, 3])
        assert out.dtype == np.float64 and out.tolist() == [1.0, 2.0, 3.0]
        assert seen == [(np.ndarray, np.float64, ())] * 3 + [(np.ndarray, np.float64, (3,))]
        step = LossSpec("step", lambda z: (z <= 0.0).astype(np.int64), is_convex=False)
        assert type(step(0.0)) is float and step(np.array([-1.0, 1.0])).dtype == np.float64


class TestSmoothnessConstants:
    def test_logistic_curvature_peak(self):
        """Densely measured second slopes of the logistic loss top out at 1/4.

        This re-derives the declared smoothness constant purely from loss
        values: central second differences on a fine grid peak at the origin
        with value sigma(0) * (1 - sigma(0)) = 1/4.
        """
        F = make_builtin("logistic")
        h = 1e-3
        z = np.arange(-10.0, 10.0 + h, h)
        second = (F(z - h) - 2.0 * F(z) + F(z + h)) / (h * h)
        assert second.max() == pytest.approx(LOGISTIC_BETA, abs=1e-5)
        assert F.smoothness_beta == LOGISTIC_BETA == 0.25

    def test_square_curvature_exact(self):
        F = make_builtin("square")
        h = 0.37
        for z in (-5.0, 0.0, 2.5):
            second = (F(z - h) - 2.0 * F(z) + F(z + h)) / (h * h)
            assert second == pytest.approx(SQUARE_BETA, rel=1e-9)
        assert F.smoothness_beta == SQUARE_BETA == 2.0

    @pytest.mark.parametrize("q", [-2.0, -0.5, 0.7])
    def test_clipped_logistic_curvature_bounded_above(self, q):
        """Dense second slopes of clipped_logistic never exceed 1/4, so
        F - z^2/8 is concave.  At the clip point they plunge: the loss is not
        convex, and no two-sided smoothness constant holds."""
        F = make_builtin("clipped_logistic", q=q)
        h = 1e-3
        z = np.arange(-10.0, 10.0 + h, h)
        second = (F(z - h) - 2.0 * F(z) + F(z + h)) / (h * h)
        assert second.max() <= LOGISTIC_BETA + 1e-9
        if q < 0.0:
            assert second.max() == pytest.approx(LOGISTIC_BETA, abs=1e-5)
        assert second.min() < -10.0
        assert F.curvature_bound == LOGISTIC_BETA
        assert F.smoothness_beta is None and not F.is_convex

    def test_nonsmooth_losses_declare_none(self):
        for name in ("hinge", "zero_one", "exponential"):
            assert make_builtin(name).smoothness_beta is None
        assert make_builtin("spring", Q=3.0).smoothness_beta is None
        assert make_builtin("clipped_logistic", q=-2.0).smoothness_beta is None


class TestClippedLogistic:
    def test_clipping_at_the_declared_level(self):
        q = -2.0
        F = make_builtin("clipped_logistic", q=q)
        cap = math.log1p(math.exp(-q))
        assert F(-50.0) == pytest.approx(cap, rel=1e-15)
        assert F(q) == pytest.approx(cap, rel=1e-15)
        # Right of the clip point the loss is plain logistic.
        assert F(0.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert F.params == {"q": q}

    def test_default_parameter(self):
        assert make_builtin("clipped_logistic").params == {"q": -2.0}

    def test_not_convex(self):
        assert make_builtin("clipped_logistic", q=-1.0).is_convex is False


class TestSpring:
    def test_origin_value(self):
        for Q in (1.0, 5.0, 500.0):
            assert make_builtin("spring", Q=Q)(0.0) == pytest.approx(
                math.log(2.0), rel=1e-15
            )

    def test_bump_is_periodic(self):
        Q = 5.0
        F = make_builtin("spring", Q=Q)
        base = make_builtin("logistic")
        z = np.linspace(-1.0, 1.0, 4001)
        bump = F(z) - base(z)
        bump_shifted = F(z + 1.0 / Q) - base(z + 1.0 / Q)
        np.testing.assert_allclose(bump, bump_shifted, atol=1e-12)

    def test_teeth_height(self):
        Q = 500.0
        F = make_builtin("spring", Q=Q)
        base = make_builtin("logistic")
        z = np.linspace(0.0, 1.0 / Q, 20001)
        bump = F(z) - base(z)
        assert bump.min() == pytest.approx(0.0, abs=1e-12)
        assert bump.max() == pytest.approx(1.0 / Q, rel=1e-6)

    @pytest.mark.parametrize("Q", [1.0, 40.0, 500.0])
    def test_logistic_minorant_holds_on_computed_values(self, Q):
        """Spring's computed value is at least the computed logistic value
        bit for bit, densely and at the bump seams (Q z = k + 1/2, where
        1 - 4 u^2 rounds around 0) and one ulp either side of them."""
        F = make_builtin("spring", Q=Q)
        assert F.minorant.name == "logistic"
        seams = (np.arange(-3 * Q, 3 * Q) + 0.5) / Q
        z = np.concatenate([
            np.linspace(-40.0, 40.0, 200001),
            seams, np.nextafter(seams, -np.inf), np.nextafter(seams, np.inf),
        ])
        assert (F(z) >= F.minorant(z)).all()

    def test_rejects_nonpositive_period_count(self):
        with pytest.raises(ConfigError):
            make_builtin("spring", Q=0.0)
        with pytest.raises(ConfigError):
            make_builtin("spring", Q=-2.0)


class TestDeclaredBeta:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_invalid_beta_rejected_at_construction(self, beta):
        with pytest.raises(ConfigError, match="'bad': need 0 < smoothness_beta < inf"):
            LossSpec("bad", np.abs, is_convex=True, smoothness_beta=beta)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_invalid_curvature_bound_rejected_at_construction(self, beta):
        with pytest.raises(ConfigError, match="'bad': need 0 < curvature_bound < inf"):
            LossSpec("bad", np.abs, is_convex=False, curvature_bound=beta)

    def test_only_clipped_logistic_declares_a_curvature_bound(self):
        for name in BUILTIN_NAMES:
            bound = make_builtin(name).curvature_bound
            assert bound == (LOGISTIC_BETA if name == "clipped_logistic" else None), name
        assert LossSpec("ok", np.abs, is_convex=False, curvature_bound=2.0).curvature_bound == 2.0

    @pytest.mark.parametrize(
        "minorant",
        [
            LossSpec("exponential", np.exp, is_convex=True),  # convex, no beta
            LossSpec("wavy", np.sin, is_convex=False, smoothness_beta=1.0),  # beta, not convex
            make_builtin("spring"),  # certified only through its own minorant
            np.negative,  # not a LossSpec
        ],
        ids=lambda G: getattr(G, "name", "function"),
    )
    def test_minorant_whose_curvature_certifies_nothing_rejected(self, minorant):
        with pytest.raises(ConfigError, match="'bad': a minorant must be a LossSpec declaring"):
            LossSpec("bad", np.abs, is_convex=False, minorant=minorant)

    def test_only_spring_declares_a_minorant(self):
        for name in BUILTIN_NAMES:
            minorant = make_builtin(name).minorant
            assert (minorant and minorant.name) == ("logistic" if name == "spring" else None), name
        G = make_builtin("clipped_logistic")  # clipped_logistic <= logistic + 1
        F = LossSpec("ok", lambda z: np.logaddexp(0.0, -z) + 1.0, is_convex=False, minorant=G)
        assert F.minorant is G

    def test_valid_or_absent_beta_accepted(self):
        assert LossSpec("ok", np.abs, is_convex=True, smoothness_beta=0.25).smoothness_beta == 0.25
        assert LossSpec("ok", np.abs, is_convex=True).smoothness_beta is None


class TestRegistry:
    def test_builtin_names_resolve(self):
        for name in BUILTIN_NAMES:
            assert make_builtin(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            make_builtin("nope")

    def test_parameterless_builtin_rejects_params(self):
        with pytest.raises(ConfigError, match="does not take parameters"):
            make_builtin("logistic", q=1.0)
        for name in BUILTIN_NAMES:
            with pytest.raises(ConfigError, match=r"does not take parameters \['nope'\]"):
                make_builtin(name, nope=1.0)

    def test_register_and_resolve(self, monkeypatch):
        monkeypatch.setattr(losses_module, "_REGISTRY", {})

        def factory(scale=1.0):
            return LossSpec("scaled_abs", lambda z: scale * np.abs(z), is_convex=True)

        register_loss("scaled_abs", factory)
        assert "scaled_abs" in registered_names()
        F = make_builtin("scaled_abs", scale=2.0)
        assert F(-3.0) == 6.0

    def test_cannot_shadow_builtin(self, monkeypatch):
        monkeypatch.setattr(losses_module, "_REGISTRY", {})
        with pytest.raises(ConfigError, match="shadow"):
            register_loss("logistic", lambda: None)


class TestTableLoss:
    def test_interpolation_and_end_extension(self):
        F = table_loss("ramp", [0.0, 1.0, 2.0], [1.0, 0.0, 0.0])
        assert F(0.5) == 0.5
        assert F(-10.0) == 1.0  # constant extension left
        assert F(10.0) == 0.0  # constant extension right

    def test_unsorted_input_is_sorted(self):
        F = table_loss("t", [2.0, 0.0, 1.0], [0.0, 1.0, 0.5])
        assert F(0.5) == 0.75

    def test_duplicate_abscissae_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            table_loss("t", [0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_few_rows_rejected(self):
        with pytest.raises(ConfigError):
            table_loss("t", [0.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            table_loss("t", [0.0, 1.0], [np.inf, 0.0])

    def test_load_from_csv(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("z,value\n-1.0,2.0\n0.0,1.0\n1.0,0.0\n")
        F = load_table_loss(str(path), name="csvloss")
        assert F.name == "csvloss"
        assert F(-0.5) == 1.5

    def test_load_rejects_single_column(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0.0\n1.0\n")
        with pytest.raises(ConfigError, match="two columns"):
            load_table_loss(str(path))

    def test_load_rejects_a_third_cell(self, tmp_path):
        # Read as (0, 0.7) before, the 9 dropped unseen.
        path = tmp_path / "loss.csv"
        path.write_text("z,F\n-1,1\n0,0.7,9\n1,0\n")
        with pytest.raises(ConfigError, match="loss.csv:3: expected two columns, got 3"):
            load_table_loss(str(path))

    def test_load_rejects_non_numeric_row(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("0.0,1.0\nfoo,bar\n")
        with pytest.raises(ConfigError, match="loss.csv:2"):
            load_table_loss(str(path))

    def test_load_names_the_file_line_a_record_ends_on(self, tmp_path):
        # The quoted "-1\n" spans lines 2-3, so the bad cell is on line 4.
        path = tmp_path / "loss.csv"
        path.write_text('z,F\n"-1\n",1\n1,x\n')
        with pytest.raises(ConfigError, match="loss.csv:4: could not convert string to float: 'x'"):
            load_table_loss(str(path))

    def test_load_skips_blank_lines_before_the_header(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text("\n\nz,F\n-1,1\n\n1,0\n")
        assert load_table_loss(str(path))(0.0) == 0.5

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_load_names_the_line_of_a_non_finite_cell(self, tmp_path, cell):
        path = tmp_path / "loss.csv"
        path.write_text(f"z,F\n-1,1\n\n{cell},0\n")
        with pytest.raises(ConfigError, match="loss.csv:4: table loss entries must be finite"):
            load_table_loss(str(path))


def _tiny_dataset():
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    return dataset_from_numeric(X, y)


def _named_z(exc) -> float:
    return float(str(exc.value).split("z=")[1].split(";")[0])


# Callers that query the loss at 0.305, inside logistic_hole's (0.30, 0.31),
# among finite points.
HOLE_CALLERS = {
    "secant_slopes": lambda F: secant_slopes(F, np.array([0.0, 0.2]), np.array([0.1, 0.105])),
    "partial_weights": lambda F: partial_weights(
        F, dataset_from_numeric(np.zeros((2, 1)), [1.0, 1.0]), None, None,
        np.array([0.1, 0.1]), 0.305, margins_prev=np.zeros(2), h_values=np.array([1.0, 0.0]),
    ),
    "second_order_mean": lambda F: second_order_mean(
        F, np.zeros(2), np.array([0.305, 0.1]), np.array([0.1, 0.1]), np.ones(2), 1.0
    ),
}


class TestFiniteContract:
    """Calling a LossSpec checks every value it returns."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scalar_and_array_name_the_first_bad_abscissa(self, bad):
        F = logistic_hole(0.30, 0.31, bad=bad)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned {bad} at z=0.305; "):
            F(0.305)
        with pytest.raises(ConfigError, match=f"returned {bad} at z=0.305; "):
            F(np.array([0.0, 0.305, 0.306]))

    @pytest.mark.parametrize("call", HOLE_CALLERS.values(), ids=HOLE_CALLERS)
    def test_callers_raise_inside_the_hole(self, call):
        F = logistic_hole(0.30, 0.31)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=") as exc:
            call(F)
        assert 0.30 < _named_z(exc) < 0.31


class TestEmpiricalLoss:
    def test_constant_ensemble(self):
        S = _tiny_dataset()
        F = make_builtin("square")
        H = Ensemble(h0=0.5)
        # Margins are y * 0.5 = (+.5, +.5, -.5, -.5); square loss values are
        # (0.25, 0.25, 2.25, 2.25), mean 1.25.
        assert empirical_loss(F, S, H) == pytest.approx(1.25)


class TestLabelNoise:
    def test_zero_rate_is_identity(self):
        S = _tiny_dataset()
        noisy = inject_label_noise(S, 0.0, seed=3)
        np.testing.assert_array_equal(noisy.labels, S.labels)

    def test_returns_copy(self):
        S = _tiny_dataset()
        noisy = inject_label_noise(S, 0.5, seed=3)
        assert noisy is not S
        assert noisy.labels is not S.labels

    def test_deterministic_per_seed(self):
        S = _tiny_dataset()
        a = inject_label_noise(S, 0.5, seed=9)
        b = inject_label_noise(S, 0.5, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rate_is_respected_in_aggregate(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(2000, 1))
        y = np.ones(2000)
        S = dataset_from_numeric(X, y)
        noisy = inject_label_noise(S, 0.1, seed=4)
        flipped = int(np.sum(noisy.labels != y))
        assert 140 <= flipped <= 260  # ~Binomial(2000, 0.1)

    def test_invalid_rate(self):
        S = _tiny_dataset()
        with pytest.raises(ConfigError):
            inject_label_noise(S, 1.0, seed=0)
        with pytest.raises(ConfigError):
            inject_label_noise(S, -0.1, seed=0)
