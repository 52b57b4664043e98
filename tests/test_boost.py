"""Tests for the boosting driver, its telemetry, and the certificate."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

from conftest import (
    logistic_hole,
    logistic_nan_below,
    logistic_then,
    reading,
    separable_dataset,
)
from secantboost import (
    BoostConfig,
    BoostIterState,
    ConfigError,
    ConstantLossError,
    DiscontinuityCollisionError,
    Ensemble,
    LossSpec,
    TELEMETRY_COLUMNS,
    alpha_from_smoothness,
    convergence_certificate,
    dataset_from_numeric,
    find_offset,
    guaranteed_decrease_bound,
    initialize,
    make_builtin,
    run,
    table_loss,
    telemetry_to_csv,
)
from secantboost.boost import nudge_alpha
from secantboost.vderiv import secant_slopes


# The golden suite's piecewise-linear loss.
TABLE = table_loss("table", [-3.0, -1.0, 0.0, 0.5, 2.0], [3.0, 1.6, 0.9, 0.7, 0.0])


def _blobs(m=24, seed=0, flip=0):
    """Two shifted Gaussian blobs: linearly separable-ish numeric data."""
    rng = np.random.default_rng(seed)
    half = m // 2
    X = np.vstack(
        [
            rng.normal(loc=+1.0, scale=0.6, size=(half, 2)),
            rng.normal(loc=-1.0, scale=0.6, size=(m - half, 2)),
        ]
    )
    y = np.concatenate([np.ones(half), -np.ones(m - half)])
    if flip:
        y[:flip] *= -1.0
    return dataset_from_numeric(X, y)


def _flat_loss():
    return table_loss("flat", [-100.0, 100.0], [1.0, 1.0])


class TestInitialize:
    def test_logistic_picks_first_live_chord(self):
        """The grid probes v0 = -1 with h0 = 0 first; the logistic chord
        there has nonzero slope, so every initial weight equals
        log(1+e) - log(2), computed by the very same operations."""
        F = make_builtin("logistic")
        S = _blobs(8)
        ens, st0 = initialize(F, S)
        assert ens.h0 == 0.0
        assert st0.t == 0
        expected = np.logaddexp(0.0, 1.0) - np.logaddexp(0.0, 0.0)
        np.testing.assert_array_equal(st0.weights, np.full(8, expected))
        np.testing.assert_array_equal(st0.offsets, np.full(8, -1.0))

    def test_zero_one_skips_flat_chords(self):
        # At h0 = 0 the chord (F(-1) - F(0))/(-1) is flat (both sides sit on
        # the jump's high side); h0 = 0.1 straddles the jump and wins.
        F = make_builtin("zero_one")
        S = _blobs(8)
        ens, st0 = initialize(F, S)
        assert ens.h0 == 0.1
        np.testing.assert_array_equal(st0.weights, np.ones(8))
        np.testing.assert_array_equal(st0.offsets, np.full(8, -1.0))

    def test_constant_loss_raises(self):
        with pytest.raises(ConstantLossError):
            initialize(_flat_loss(), _blobs(8))

    def test_non_finite_chord_slope_raises(self):
        # The first probe, (F(-1) - F(0)) / (-1), is NaN; NaN != 0 must not
        # pass for a live chord and start the run from NaN weights.
        F = logistic_nan_below(-0.5)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=-1.0;"):
            initialize(F, _blobs(8))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_chord_slope_raises(self):
        # Both loss values are finite, but their difference overflows.
        def evaluate(z):
            return np.where(z < -0.5, 1e308, -1e308)

        F = LossSpec("cliff", evaluate, is_convex=False)
        with pytest.raises(ConfigError, match="chord slope -inf between z=0.0 and z=-1.0"):
            initialize(F, _blobs(8))

    def test_non_finite_initial_loss_raises(self):
        # (z + 0.5)^2 is flat on the h0 = 0 chord (F(-1) == F(0)), so h0 = 0.1
        # wins and the negatives' first margin, -0.1, lands in the NaN hole.
        def evaluate(z):
            return np.where(np.abs(z + 0.1) < 0.05, np.nan, (z + 0.5) ** 2)

        F = LossSpec("holed_square", evaluate, is_convex=False)
        with pytest.raises(ConfigError, match="loss 'holed_square' returned nan at z=-0.1;"):
            initialize(F, _blobs(8))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_initial_mean_raises(self):
        # Finite values near 1e308 at h0 = 0: their sum over 8 rows overflows.
        F = LossSpec("near_max", lambda z: 1e308 - 1e300 * np.asarray(z), is_convex=False)
        with pytest.raises(ConfigError, match=(
            r"^loss 'near_max' gives an initial mean loss that overflows to inf at h0=0.0 "
            r"\(largest \|F\| = 1e\+308\)$"
        )):
            initialize(F, _blobs(8))
        # The constant-loss row's mean, likewise.
        F = LossSpec("flat_max", lambda z: np.full(np.shape(z), 1e308), is_convex=False)
        with pytest.raises(ConfigError, match="^loss 'flat_max' gives an initial mean loss"):
            run(F, _blobs(8), T=1)

    def test_initial_loss_and_error(self):
        F = make_builtin("logistic")
        S = _blobs(8)
        _, st0 = initialize(F, S)
        # h0 = 0 gives margin 0 everywhere: loss log 2, 0/1 error 1 (ties
        # count as errors).
        assert st0.train_loss == pytest.approx(math.log(2.0), rel=1e-15)
        assert st0.train_err == 1.0


class TestNudgeAlpha:
    def test_continuous_loss_passes_through(self):
        F = make_builtin("logistic")
        assert nudge_alpha(F, 0.5, np.ones(4), np.zeros(4), np.ones(4)) == 0.5

    def test_edge_on_jump_gets_moved(self):
        F = make_builtin("zero_one")
        margins = np.array([-0.5])
        hv = np.array([1.0])
        nudged = nudge_alpha(F, 0.5, np.array([1.0]), margins, hv, seed=3)
        assert nudged != 0.5
        assert abs(nudged - 0.5) <= 0.5 * 1e-6 * (1.0 + 1e-12)
        assert abs(margins[0] + nudged * hv[0]) > 1e-12


@pytest.fixture(scope="module")
def completed():
    F = make_builtin("logistic")
    S = _blobs(24, seed=1)
    cfg = BoostConfig(record_vectors=True, seed=5)
    ens, rows = run(F, S, T=6, config=cfg)
    return F, S, ens, rows


class TestRunLogistic:

    def test_monotone_decrease(self, completed):
        F, S, ens, rows = completed
        losses = [float(np.mean(F(S.labels * ens.h0)))] + [r.train_loss for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_stop_reason_completed(self, completed):
        _, _, _, rows = completed
        assert rows[-1].stop_reason == "completed"
        assert all(r.stop_reason == "none" for r in rows[:-1])

    def test_one_term_per_row(self, completed):
        _, _, ens, rows = completed
        assert len(ens.terms) == len(rows)
        for row, (alpha, _) in zip(rows, ens.terms):
            assert row.alpha == alpha

    def test_margin_recurrence(self, completed):
        """Each iteration's new edges are the old ones plus alpha * y * h."""
        _, S, ens, rows = completed
        y = S.labels
        for row, (alpha, h) in zip(rows, ens.terms):
            expected = row.edges_tilde + alpha * y * h.predict_dataset(S)
            np.testing.assert_allclose(row.edges_new, expected, rtol=0, atol=1e-12)

    def test_edges_chain_across_iterations(self, completed):
        _, _, _, rows = completed
        for prev, nxt in zip(rows, rows[1:]):
            np.testing.assert_array_equal(nxt.edges_tilde, prev.edges_new)

    def test_weights_are_negated_secant_slopes(self, completed):
        """Weights entering iteration t+1 equal the negated chord slopes at
        iteration t's new edges and offsets, bit for bit."""
        F, _, _, rows = completed
        for prev, nxt in zip(rows, rows[1:]):
            expected = -secant_slopes(F, prev.edges_new, prev.offsets_new)
            np.testing.assert_array_equal(nxt.weights, expected)

    def test_normalized_edge_identity(self, completed):
        """eta_tilde * weight_mass * M == m * eta: the mass-normalized edge
        and the raw mean edge describe the same inner product."""
        _, S, _, rows = completed
        for row in rows:
            lhs = row.eta_tilde * row.weight_mass * row.M
            np.testing.assert_allclose(lhs, S.m * row.eta, rtol=1e-10)

    def test_smoothness_route_metadata(self, completed):
        _, _, _, rows = completed
        for row in rows:
            assert row.route == "smoothness"
            assert row.w2_bar == 0.5  # 2 * beta
            assert row.pi is not None and 0.0 < row.pi < 1.0
            assert np.sign(row.alpha) == np.sign(row.eta)

    def test_decrease_bound_honored(self, completed):
        F, S, ens, rows = completed
        prev = float(np.mean(F(S.labels * ens.h0)))
        for row in rows:
            realized = prev - row.train_loss
            assert realized >= row.decrease_bound - 1e-8
            prev = row.train_loss

    def test_training_error_falls(self, completed):
        _, _, _, rows = completed
        assert rows[-1].train_err < rows[0].train_err or rows[-1].train_err == 0.0


class TestRunRoughLoss:
    def test_findalpha_route_monotone(self):
        F = make_builtin("spring", Q=20.0)
        S = _blobs(20, seed=3, flip=2)
        ens, rows = run(F, S, T=8, config=BoostConfig(seed=1))
        assert rows[-1].stop_reason in ("completed", "zero_weights", "offsets_infeasible")
        losses = [float(np.mean(F(S.labels * ens.h0)))] + [r.train_loss for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(losses, losses[1:]))

    def test_findalpha_route_metadata(self):
        F = make_builtin("clipped_logistic", q=-2.0)
        S = _blobs(20, seed=7)
        _, rows = run(F, S, T=5, config=BoostConfig(seed=2))
        for row in rows:
            assert row.route == "findalpha"
            assert row.pi is None
            assert row.epsilon > 0.0
            # The halving route saturates its certificate, so the certified
            # decrease is exactly zero up to clamped rounding dust.
            assert 0.0 <= row.decrease_bound <= 1e-12
            assert abs(row.alpha) < abs(row.eta) / (row.w2_bar * row.M**2)


class TestStops:
    def test_constant_loss_single_row(self):
        ens, rows = run(_flat_loss(), _blobs(8), T=50)
        assert len(rows) == 1
        row = rows[0]
        assert row.t == 1
        assert row.stop_reason == "zero_weights"
        assert row.constant_loss is True
        assert row.train_loss == 1.0
        assert row.weight_mass == 0.0
        assert ens.h0 == 0.0 and ens.terms == []
        # With no term to check it, the ensemble still knows its feature
        # count; one built by hand does not.
        S = _blobs(8)
        wider = dataset_from_numeric(np.column_stack(S.columns + S.columns[:1]), S.labels)
        with pytest.raises(ValueError, match="^expected 2 features, got 3$"):
            ens.predict_dataset(wider)
        assert Ensemble(h0=0.5).predict_dataset(wider).tolist() == [0.5] * 8

    def test_zero_edge_warns_and_stops(self):
        # Balanced XOR data: the tree refuses every zero-gain split, the
        # repaired constant hypothesis has edge exactly zero on balanced
        # initial weights, and the run stops with the warning row.
        import itertools

        X = np.array(list(itertools.product([0.0, 1.0], repeat=2)) * 2)
        y = np.where(np.logical_xor(X[:, 0] > 0.5, X[:, 1] > 0.5), 1.0, -1.0)
        S = dataset_from_numeric(X, y)
        with pytest.warns(UserWarning, match="zero edge"):
            ens, rows = run(make_builtin("logistic"), S, T=5)
        assert len(rows) == 1
        assert rows[0].eta == 0.0
        assert rows[0].stop_reason == "none"
        assert ens.terms == [] and ens.n_features == 2
        assert ens.predict_dataset(S).tolist() == [ens.h0] * S.m
        with pytest.raises(ValueError, match="^expected 2 features, got 3$"):
            ens.predict_dataset(dataset_from_numeric(np.hstack([X, X[:, :1]]), y))

    def test_offsets_infeasible_stops_cleanly(self, monkeypatch):
        import secantboost.boost as boost_module

        monkeypatch.setattr(boost_module, "find_offset", lambda F, *args, fa: None)
        ens, rows = run(make_builtin("logistic"), _blobs(12, seed=2), T=4)
        assert len(rows) == 1
        assert rows[0].stop_reason == "offsets_infeasible"
        # The term stays in the ensemble: edges already moved when the
        # budget failed, so the model must reflect them.
        assert len(ens.terms) == 1

    def test_t_validation(self):
        with pytest.raises(ValueError, match="T must be"):
            run(make_builtin("logistic"), _blobs(8), T=0)

    @pytest.mark.parametrize("name,route", [("logistic", "smoothness"), ("spring", "findalpha")])
    def test_stalled_guard_raises_naming_the_route(self, monkeypatch, name, route):
        import secantboost.boost as boost_module

        monkeypatch.setattr(boost_module, "GUARD_CAP", 0)
        with pytest.raises(DiscontinuityCollisionError, match=f"no {route} step met"):
            run(make_builtin(name), _blobs(12, seed=2), T=3)


class TestRefreshOffsets:
    """Examples whose edge does not move at the scan's resolution reuse their
    previous offset; the others get find_offset's, batched or per row."""

    @pytest.mark.parametrize("name", ["logistic", "spring", "hinge", "zero_one", "table"])
    def test_reused_and_moved_rows(self, name):
        from secantboost.boost import _refresh_offsets

        F = TABLE if name == "table" else make_builtin(name)
        cfg = BoostConfig(precision_Z=64)
        one_ulp = float(np.nextafter(1.0, 2.0))
        margins_new = np.array([0.5, -1.0, 2.0, 1.0, 0.3, 1.0, -0.7])
        margins = np.array([0.8, -1.4, 2.0, one_ulp, 0.1, 1.0 + 1e-18, -0.2])
        v_prev = np.array([0.01, -0.02, 3e-5, -4e-6, 0.05, 7e-7, -0.1])
        v, reused = _refresh_offsets(
            F, margins, margins_new, v_prev, 1e-3, cfg, t=2, f_new=F(margins_new)
        )
        assert reused.tolist() == [False, False, True, True, False, True, False]
        assert v[reused].tobytes() == v_prev[reused].tobytes()
        for i in np.flatnonzero(~reused).tolist():
            assert v[i] == find_offset(F, margins_new[i], margins[i], 1e-3, cfg.precision_Z)

    @pytest.mark.parametrize("name", ["hinge", "exponential", "zero_one", "table", "spring"])
    def test_find_offset_calls(self, monkeypatch, name):
        """A loss without a minorant asks the oracle once per iteration, with
        an array of its moved rows; spring, which declares one, once per
        moved row."""
        import secantboost.boost as boost_module

        calls = []

        def counting(F, e_t, *args, **kwargs):
            calls.append(isinstance(e_t, np.ndarray))
            return find_offset(F, e_t, *args, **kwargs)

        monkeypatch.setattr(boost_module, "find_offset", counting)
        F = TABLE if name == "table" else make_builtin(name)
        cfg = BoostConfig(max_nodes=2, record_vectors=True)
        _, rows = run(F, separable_dataset(m=60, seed=1), T=3, config=cfg)
        asked = [row for row in rows if row.offsets_reused is not None]
        assert asked
        if F.minorant is None:
            assert calls == [True] * len(asked)
        else:
            moved = sum(int(np.count_nonzero(~row.offsets_reused)) for row in asked)
            assert moved > 0
            assert calls == [False] * moved


class TestNonFiniteLoss:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in a slope
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("beta", [0.25, None], ids=["smoothness", "findalpha"])
    def test_run_raises_config_error(self, bad, beta):
        """A NaN or inf loss value at a candidate margin is a broken loss,
        not a step to halve away or a discontinuity: the run stops with
        ConfigError naming the loss and the offending abscissa."""
        F = logistic_then(bad, smoothness_beta=beta)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned {bad} at z=") as exc:
            run(F, _blobs(24, seed=1), T=30)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert z > 0.3


    def test_run_raises_config_error_at_start(self):
        F = logistic_nan_below(-0.5)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=-1.0;"):
            run(F, _blobs(24, seed=1), T=5)

    @pytest.mark.parametrize("is_convex", [False, True])
    def test_nan_between_finite_edges_raises(self, is_convex):
        """Margins step over the NaN hole, so only the chord-gap grid sees it;
        the run must name the hole, not stop as offsets_infeasible."""
        F = logistic_hole(0.30, 0.31, is_convex=is_convex)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned nan at z=") as exc:
            run(F, separable_dataset(m=120, seed=3), T=30)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    def test_inf_between_finite_edges_raises(self):
        """An inf hole makes a -inf chord gap, which the grid maximum passes
        over; the run must name the hole, not end as completed."""
        F = logistic_hole(0.30, 0.31, bad=math.inf)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned inf at z=") as exc:
            run(F, separable_dataset(m=120, seed=3), T=30)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    def test_inf_between_finite_edges_raises_for_convex_loss(self):
        """A convex loss's chords end before the hole, so only the offset
        oracle's candidate scan evaluates it; the run must name the hole."""
        F = logistic_hole(0.30, 0.31, is_convex=True, bad=math.inf)
        with pytest.raises(ConfigError, match=f"loss '{F.name}' returned inf at z=") as exc:
            run(F, separable_dataset(m=120, seed=3), T=30)
        z = float(str(exc.value).split("z=")[1].split(";")[0])
        assert 0.30 < z < 0.31

    def test_non_finite_weight_raises(self, monkeypatch):
        import secantboost.boost as boost_module

        def slopes_with_nan(F, margins, offsets, *, f_z, f_zv):
            out = secant_slopes(F, margins, offsets, f_z=f_z, f_zv=f_zv)
            out[5] = np.nan
            return out

        monkeypatch.setattr(boost_module, "secant_slopes", slopes_with_nan)
        F = make_builtin("logistic")
        with pytest.raises(ConfigError, match=r"loss 'logistic' gives weight nan at margin z=\S+ "
                           r"with offset \S+$"):
            run(F, _blobs(12, seed=2), T=4)


class TestLossReads:
    def test_each_value_read_once_per_iteration(self, monkeypatch):
        """The guard's F(margins_new) serves the oracle's F(e_t), the
        second-order term's F(z+e) and the slopes' F(z); the slopes' values
        serve the next iteration.  So an iteration whose guard accepts its
        first step reads 3*m points outside the oracle: the guard, the
        second-order term's F(z+e+v_prev) and the slopes' F(z+v)."""
        import secantboost.boost as boost_module

        log, oracle_log = [], []
        F = reading(make_builtin("logistic"), log)
        S = separable_dataset(m=120, seed=5)
        train_tree, find_offset = boost_module.train_tree, boost_module.find_offset

        def marked_tree(*args, **kwargs):
            log.append(None)  # one marker per iteration
            return train_tree(*args, **kwargs)

        def oracle_apart(F, e_t, *args, **kwargs):
            start = len(log)
            try:
                return find_offset(F, e_t, *args, **kwargs)
            finally:
                oracle_log.append((e_t, log[start:]))
                del log[start:]

        monkeypatch.setattr(boost_module, "train_tree", marked_tree)
        monkeypatch.setattr(boost_module, "find_offset", oracle_apart)
        cfg = BoostConfig()
        _, rows = run(F, S, T=12, config=cfg)
        assert rows[-1].stop_reason == "completed"
        start, *iterations = np.split(np.array(log, dtype=object), np.flatnonzero(
            np.array([x is None for x in log])))
        # Before the first tree: one chord probe, F(margins0), F(margins0 + v0).
        assert [x.size for x in start] == [1, 1, S.m, S.m]
        first_try = 0
        for row, reads in zip(rows, iterations):
            route = alpha_from_smoothness(row.eta, F.smoothness_beta, row.M, cfg.epsilon)
            if row.alpha == route.alpha:
                first_try += 1
                assert sum(x.size for x in reads[1:]) == 3 * S.m, row.t
        assert first_try >= 10
        assert len(oracle_log) == len(rows)
        for e_t, reads in oracle_log:
            assert reads and not any(np.isin(x, e_t).any() for x in reads)


class TestDecreaseBound:
    def test_formula(self):
        state = BoostIterState(t=1, eta=0.5, epsilon=1.0, M=2.0, w2_bar=0.25)
        # a = 0.2; bound = 0.2*0.25*(1 - 0.2*2*4*0.25) = 0.05*0.6 = 0.03.
        assert guaranteed_decrease_bound(state, 0.1) == pytest.approx(0.03)

    def test_clamped_at_zero(self):
        state = BoostIterState(t=1, eta=0.5, epsilon=1.0, M=2.0, w2_bar=0.25)
        assert guaranteed_decrease_bound(state, 10.0) == 0.0

    def test_zero_edge_gives_zero(self):
        state = BoostIterState(t=1, eta=0.0, epsilon=1.0, M=1.0, w2_bar=1.0)
        assert guaranteed_decrease_bound(state, 0.1) == 0.0


class TestCertificate:
    def _row(self, **kw):
        base = dict(t=1, w1_bar=0.5, w2_bar=0.25, epsilon=1.0, eta_tilde=0.2)
        base.update(kw)
        return BoostIterState(**base)

    def test_worked_example(self):
        # Term = (0.25/0.25) * (1/(1+1)) * 0.04 = 0.02, so the certificate
        # holds when f0 - target <= 0.005 (probed just off the exact
        # boundary, where rounding could tip the comparison either way).
        row = self._row()
        assert convergence_certificate([row], f0=1.0, target=0.99501)
        assert not convergence_certificate([row], f0=1.0, target=0.99499)

    def test_recorded_pi_shrinks_the_term(self):
        row = self._row(pi=0.5)
        # Term = 1 * (0.75/2) * 0.04 = 0.015.
        assert convergence_certificate([row], f0=1.0, target=1.0 - 0.0149 / 4)
        assert not convergence_certificate([row], f0=1.0, target=1.0 - 0.0151 / 4)

    def test_invalid_rows_are_skipped(self):
        bad = BoostIterState(t=1)  # all-nan certificate fields
        assert not convergence_certificate([bad], f0=1.0, target=0.999)
        assert convergence_certificate([bad], f0=1.0, target=1.0)

    def test_terms_accumulate(self):
        rows = [self._row(), self._row(t=2)]
        assert convergence_certificate(rows, f0=1.0, target=0.9901)
        assert not convergence_certificate(rows, f0=1.0, target=0.9899)


class TestTelemetryCsv:
    def test_schema_and_float_repr(self):
        F = make_builtin("logistic")
        _, rows = run(F, _blobs(12, seed=4), T=3)
        buf = io.StringIO()
        telemetry_to_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == ",".join(TELEMETRY_COLUMNS)
        assert len(lines) == len(rows) + 1
        first = lines[1].split(",")
        assert len(first) == len(TELEMETRY_COLUMNS)
        assert first[0] == "1"
        assert first[-1] in ("none", "completed")
        # Floats round-trip exactly through repr.
        assert float(first[1]) == rows[0].train_loss
        assert repr(rows[0].train_loss) == first[1]

    def test_thirteen_columns(self):
        assert len(TELEMETRY_COLUMNS) == 13
        assert TELEMETRY_COLUMNS[0] == "t"
        assert TELEMETRY_COLUMNS[-1] == "stop_reason"


class TestSignStability:
    def test_sign_stable_examples_get_zero_weight(self):
        """With the 0/1 loss, an example whose margin keeps its sign across
        an update gets a chord on one side of the jump, hence weight exactly
        0 — whether it is classified correctly or not."""
        F = make_builtin("zero_one")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        S = dataset_from_numeric(X, y)
        _, rows = run(F, S, T=2, config=BoostConfig(record_vectors=True, seed=3))
        first = rows[0]
        assert first.offsets_new is not None
        # The weights the next update would use, rebuilt from the recorded
        # edges and fresh offsets by the update's own formula.
        w_next = -secant_slopes(F, first.edges_new, first.offsets_new)
        stable = np.sign(first.edges_new) == np.sign(first.edges_tilde)
        assert np.any(stable)
        np.testing.assert_array_equal(w_next[stable], 0.0)

    def test_all_stable_instance_stops_with_zero_weights(self):
        # On this instance even the sign-flipped examples end up with flat
        # chords (the extremal-slope scan prefers the 0-slope candidates on
        # the near side of the jump), so every weight dies and the run stops.
        F = make_builtin("zero_one")
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        y = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        S = dataset_from_numeric(X, y)
        _, rows = run(F, S, T=2, config=BoostConfig(record_vectors=True, seed=3))
        assert rows[-1].stop_reason == "zero_weights"
        assert rows[-1].t == 1
