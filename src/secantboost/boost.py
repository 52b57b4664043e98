"""Boosting driver.

One iteration = train a tree on sign-corrected labels with absolute weights,
pick its coefficient (smoothness shortcut or halving search), request one
offset per example within the iteration's distortion budget, then refresh all
weights as negated secant slopes at the new edges.  Everything observable is
recorded in per-iteration telemetry rows.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, ConstantLossError, DiscontinuityCollisionError
from .leverage import (
    _DELTA_INIT,
    alpha_from_smoothness,
    epsilon_from,
    find_alpha,
    second_order_mean,
    w2_from_alpha,
)
from .offsets import DEFAULT_PRECISION_Z, find_offset, sanitize_offset
from .trees import nonzero_shift, train_tree
from .vderiv import secant_slopes, v_derivative

__all__ = [
    "H0_GRID",
    "V0_GRID",
    "TELEMETRY_COLUMNS",
    "Ensemble",
    "BoostConfig",
    "BoostIterState",
    "initialize",
    "run",
    "guaranteed_decrease_bound",
    "convergence_certificate",
    "nudge_alpha",
    "telemetry_to_csv",
]

# Initialization grid: v0 in the outer loop, h0 in the inner one, probed in
# the order written until some chord has nonzero slope.
H0_GRID = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0)
V0_GRID = (-1.0, -0.1, 0.1, 1.0)

# Step-acceptance guard: halving budget and the float slack allowed between
# the realized decrease and its certified bound (well inside the 1e-8 the
# decrease contract tolerates).
GUARD_CAP = 200
GUARD_SLACK = 1e-10

# Smoothness-route telemetry interval factor: the recorded pi when the route
# alpha is accepted unhalved.
PI = 0.5

NUDGE_REL = 1e-6  # nudge_alpha's bound on the relative change of alpha

TELEMETRY_COLUMNS = (
    "t",
    "train_loss",
    "train_err",
    "eta",
    "eta_tilde",
    "alpha",
    "epsilon",
    "w1_bar",
    "w2_bar",
    "rho",
    "M",
    "weight_mass",
    "stop_reason",
)


@dataclass
class Ensemble:
    """H(x) = h0 + sum_t alpha_t * h_t(x)."""

    h0: float
    terms: list = field(default_factory=list)  # [(alpha, WeakHypothesis), ...]
    n_features: int | None = None  # the feature count it was fitted on, when known

    def predict_dataset(self, S) -> np.ndarray:
        """H on every example of S; S must have n_features features when
        that is set, whether or not the ensemble has a term to check them."""
        if self.n_features is not None and len(S.columns) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(S.columns)}")
        out = np.full(S.m, self.h0, dtype=np.float64)
        for alpha, h in self.terms:
            out += alpha * h.predict_dataset(S)
        return out


@dataclass
class BoostConfig:
    max_nodes: int = 1
    delta_init: float = _DELTA_INIT
    epsilon: float = 0.1  # smoothness-route slack
    precision_Z: int = DEFAULT_PRECISION_Z
    seed: int = 0
    record_vectors: bool = False


@dataclass
class BoostIterState:
    """Telemetry for one iteration (and the initial state at t=0).

    Vector fields describe the state *entering* the iteration: weights w_t,
    the offsets and edges that produced them.  The *_new fields (kept only
    when record_vectors is on) describe what the iteration created; they are
    what the next iteration's weights are made of.
    """

    t: int
    eta: float = float("nan")
    eta_tilde: float = float("nan")
    weight_mass: float = float("nan")
    w1_bar: float = float("nan")
    w2_bar: float = float("nan")
    epsilon: float = float("nan")
    rho: float = float("nan")
    M: float = float("nan")
    alpha: float = float("nan")
    train_loss: float = float("nan")
    train_err: float = float("nan")
    stop_reason: str = "none"
    # --- beyond the CSV schema (in-memory only) ---
    weights: Optional[np.ndarray] = None
    offsets: Optional[np.ndarray] = None
    edges_tilde: Optional[np.ndarray] = None
    offsets_new: Optional[np.ndarray] = None
    edges_new: Optional[np.ndarray] = None
    offsets_reused: Optional[np.ndarray] = None
    pi: float | None = None
    route: str | None = None
    z_limit: float | None = None
    w2_measured: float | None = None
    decrease_bound: float | None = None
    constant_loss: bool = False


def _derived_seed(seed: int, t: int, i: int) -> int:
    return (int(seed) * 1_000_003 + int(t) * 9_176 + int(i)) & 0x7FFFFFFF


def initialize(F, S):
    """Pick (h0, v0) with a nonzero chord slope and broadcast the first weights.

    If every probed chord is flat the loss is constant on the probe set and
    there is nothing to fit.  A chord slope that overflows is a ConfigError
    naming the chord, and so is a mean initial loss that overflows (a
    non-finite loss value raises where F is called).
    """
    ens, state, _ = _initialize(F, S)
    return ens, state


def _initialize(F, S):
    """initialize, plus the loss values it read at the first margins."""
    for v0, h0 in itertools.product(V0_GRID, H0_GRID):
        d = v_derivative(F, h0, v0)
        if not np.isfinite(d):
            raise ConfigError(
                f"loss {F.name!r} has chord slope {d!r} between z={h0!r} and z={h0 + v0!r}"
            )
        if d != 0.0:
            break
    else:
        raise ConstantLossError("loss is constant on every probed chord")
    y = np.asarray(S.labels, dtype=np.float64)
    margins0 = y * h0
    f0 = F(margins0)
    state = BoostIterState(
        t=0,
        weights=np.full(S.m, -d, dtype=np.float64),
        offsets=np.full(S.m, v0, dtype=np.float64),
        edges_tilde=margins0,
        train_loss=_initial_loss(F, f0, h0),
        train_err=float(np.count_nonzero(margins0 <= 0.0) / margins0.size),
    )
    return Ensemble(h0=h0, n_features=len(S.columns)), state, f0


def _initial_loss(F, f0, h0: float) -> float:
    """The mean of the loss values f0 at the margins y*h0; ConfigError naming
    the loss, h0 and the largest |F| when that mean is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(np.add.reduce(f0) / f0.size)  # np.mean's own reduction, without its wrapper
    if not np.isfinite(loss):
        raise ConfigError(
            f"loss {F.name!r} gives an initial mean loss that overflows to {loss!r} at h0={h0!r} "
            f"(largest |F| = {float(np.max(np.abs(f0)))!r})"
        )
    return loss


def nudge_alpha(F, alpha, y, margins_prev, h_values, seed=0) -> float:
    """Keep prospective edges off declared jump points by jittering alpha.

    Each attempt re-draws a factor in [1-NUDGE_REL, 1+NUDGE_REL] around the
    original alpha, so the total relative change stays within NUDGE_REL.
    Losses with no declared jumps pass through untouched.
    """
    if not F.discontinuities:
        return alpha
    jumps = np.asarray([z for z, _ in F.discontinuities], dtype=np.float64)
    rng = np.random.default_rng(seed)
    candidate = alpha
    for _ in range(50):
        edges = margins_prev + candidate * y * h_values
        gap = np.min(np.abs(edges[:, None] - jumps[None, :]))
        if gap > 1e-12:
            return candidate
        candidate = alpha * rng.uniform(1.0 - NUDGE_REL, 1.0 + NUDGE_REL)
    raise DiscontinuityCollisionError(
        "could not move all edges off declared jump points by nudging alpha"
    )


def _leverage(F, row, y, hv, margins, alpha, certify):
    """Step-acceptance guard: halve alpha until the realized decrease meets its bound.

    The offset budget certifies the *next* round's secant remainder, so on
    rough losses a route alpha can overshoot.  certify(alpha) gives (w2_bar,
    epsilon), or None when alpha lies outside their admissible interval; a
    tiny alpha leaves the margins bitwise unchanged, so the loop ends.  Reads
    eta, M, route and the entering train_loss from the iteration's row, writes
    the accepted step (alpha, w2_bar, epsilon, pi on the smoothness route,
    train_loss, decrease_bound) into it and returns the new margins with the
    loss values it read there.
    """
    for halvings in range(GUARD_CAP):
        cert = certify(alpha)
        if cert is not None:
            row.w2_bar, row.epsilon = cert
            margins_new = margins + alpha * y * hv
            f_new = F(margins_new)
            loss = float(np.add.reduce(f_new) / f_new.size)
            try:
                bound = guaranteed_decrease_bound(row, alpha)
            except OverflowError:
                raise ConfigError(
                    f"loss {F.name!r} overflows the decrease bound at t={row.t} "
                    f"(eta={row.eta!r}, M={row.M!r}, w2_bar={row.w2_bar!r})"
                ) from None
            if row.train_loss - loss >= bound - GUARD_SLACK:
                row.alpha, row.train_loss, row.decrease_bound = alpha, loss, bound
                if row.route == "smoothness":
                    row.pi = max(PI, 1.0 - 0.5**halvings)
                return margins_new, f_new
        alpha /= 2.0
    raise DiscontinuityCollisionError(
        f"no {row.route} step met its decrease bound after {GUARD_CAP} halvings"
    )


def _refresh_offsets(
    F, margins, margins_new, v_prev, z_limit: float, cfg: BoostConfig, t: int, *, f_new
):
    """(offsets, reused mask) for the move margins -> margins_new, or None if infeasible.

    An example whose edge did not move at the scan's resolution reuses (a
    sanitized copy of) its previous offset.  The moved examples go to
    find_offset as one array request, with their loss values f_new =
    F(margins_new) as the oracle's F(e_t), except for a loss that declares a
    minorant: it gets one float call per moved example.
    """
    reused = margins_new + (margins - margins_new) / cfg.precision_Z == margins_new
    moved = (~reused).nonzero()[0]
    e_t, e_p = margins_new[moved], margins[moved]
    v_new = np.empty(margins.size, dtype=np.float64)
    if F.minorant is None:
        v = find_offset(F, e_t, e_p, z_limit, cfg.precision_Z, fa=f_new[moved])
        if v is None:
            return None
        v_new[moved] = v
    else:
        # The benchmark's derived counters pin one find_offset call per moved
        # spring example until ROADMAP item 2 derives them from a run trace.
        for i, e_t_i, e_p_i in zip(moved.tolist(), e_t.tolist(), e_p.tolist()):
            v = find_offset(F, e_t_i, e_p_i, z_limit, cfg.precision_Z)
            if v is None:
                return None
            v_new[i] = v
    for i in reused.nonzero()[0].tolist():
        v_new[i] = sanitize_offset(v_prev[i], 1e-9, seed=_derived_seed(cfg.seed, t, i))
    return v_new, reused


def run(F, S, T: int, config: BoostConfig | None = None):
    """Boost for up to T iterations; returns (ensemble, telemetry rows).

    Telemetry gets one row per started iteration; the final row's stop_reason
    says how the run ended (completed / zero_weights / offsets_infeasible, or
    none after a zero-edge warning).  A constant loss yields a single t=1 row
    with all-zero weights.  A loss value that is not finite at a candidate
    margin, a mean initial loss that overflows, FindAlpha's cap reached
    after a trial edge that overflowed, a chord distortion that is not
    finite, a non-finite refreshed weight or total |w|, or an offset budget
    that under- or overflows (an extreme epsilon or delta_init) raises
    ConfigError.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    cfg = config or BoostConfig()
    try:
        ens, st0, f = _initialize(F, S)
    except ConstantLossError:
        row = BoostIterState(
            t=1,
            eta=0.0,
            eta_tilde=0.0,
            weight_mass=0.0,
            w1_bar=0.0,
            train_loss=_initial_loss(F, F(np.zeros(S.m)), 0.0),
            train_err=1.0,
            stop_reason="zero_weights",
            weights=np.zeros(S.m),
            constant_loss=True,
        )
        return Ensemble(h0=0.0, n_features=len(S.columns)), [row]

    y = np.asarray(S.labels, dtype=np.float64)
    w, v_prev, margins, loss_prev = st0.weights, st0.offsets, st0.edges_tilde, st0.train_loss
    # f and f_v: the loss at the margins and at the margins plus their
    # offsets, read once.  After t=1 the guard and the weight refresh read
    # exactly these points; the second-order term reuses both.
    f_v = F(margins + v_prev)
    rows: list[BoostIterState] = []

    for t in range(1, T + 1):
        with np.errstate(over="ignore"):
            weight_mass = float(np.add.reduce(np.abs(w)))
        if not np.isfinite(weight_mass):
            raise ConfigError(
                f"loss {F.name!r} gives weights at t={t} whose total sum|w| overflows to "
                f"{weight_mass!r} (largest |w| = {float(np.max(np.abs(w)))!r})"
            )
        active = (w != 0.0).nonzero()[0]
        S_t = S.subset(active).with_labels(y[active] * np.sign(w[active]))
        h = nonzero_shift(train_tree(S_t, np.abs(w[active]), cfg.max_nodes), S)
        hv = h.predict_dataset(S)
        M = float(np.maximum.reduce(np.abs(hv)))
        eta = float(np.add.reduce(w * y * hv) / w.size)
        row = BoostIterState(
            t=t,
            eta=eta,
            eta_tilde=float(np.add.reduce((np.abs(w) / weight_mass) * np.sign(w) * y * hv / M)),
            weight_mass=weight_mass,
            w1_bar=abs(float(np.add.reduce(w) / w.size)),
            M=M,
            train_loss=loss_prev,
            train_err=float(np.count_nonzero(margins <= 0.0) / margins.size),
        )
        rows.append(row)
        if cfg.record_vectors:
            row.weights, row.offsets, row.edges_tilde = w.copy(), v_prev.copy(), margins.copy()

        if eta == 0.0:
            row.eta_tilde = 0.0
            warnings.warn("zero edge: weak learning assumption failed; stopping")
            return ens, rows

        if F.smoothness_beta is not None:
            row.route = "smoothness"
            lev0 = alpha_from_smoothness(eta, F.smoothness_beta, M, cfg.epsilon)
            alpha = lev0.alpha

            def certify(a):
                return lev0.w2_bar, lev0.epsilon
        else:
            row.route = "findalpha"
            alpha = find_alpha(
                F, S, ens, w, h, v_prev, cfg.delta_init, margins_prev=margins, h_values=hv
            )

            def certify(a):
                w2_bar = w2_from_alpha(
                    F, S, ens, h, v_prev, a, M, eta=eta, margins_prev=margins, h_values=hv,
                    f_z=f, f_zv=f_v,
                )
                if not abs(a) < abs(eta) / (w2_bar * M * M):
                    return None
                return w2_bar, epsilon_from(a, w2_bar, eta, M)
        alpha = nudge_alpha(F, alpha, y, margins, hv, seed=_derived_seed(cfg.seed, t, 1))
        margins_new, f_new = _leverage(F, row, y, hv, margins, alpha, certify)

        ens.terms.append((row.alpha, h))
        row.rho = row.w1_bar * row.w1_bar / row.w2_bar
        row.train_err = float(np.count_nonzero(margins_new <= 0.0) / margins_new.size)
        row.w2_measured = second_order_mean(
            F, margins, row.alpha * y * hv, v_prev, hv, M, f_z=f, f_zv=f_v, f_ze=f_new
        )
        row.z_limit = z_limit = row.epsilon * row.alpha**2 * M * M * row.w2_bar
        if not 0.0 < z_limit < np.inf:
            knob = "epsilon" if row.route == "smoothness" else "delta_init"
            raise ConfigError(
                f"offset budget z_limit={z_limit!r} at t={t} is not positive and finite "
                f"(alpha={row.alpha!r}, epsilon={row.epsilon!r}): "
                f"{knob}={getattr(cfg, knob)!r} is out of range"
            )
        if cfg.record_vectors:
            row.edges_new = margins_new.copy()

        refreshed = _refresh_offsets(F, margins, margins_new, v_prev, z_limit, cfg, t, f_new=f_new)
        if refreshed is None:
            row.stop_reason = "offsets_infeasible"
            return ens, rows
        v_new, reused = refreshed
        if cfg.record_vectors:
            row.offsets_new = v_new.copy()
            row.offsets_reused = reused

        f_v_new = F(margins_new + v_new)
        w_next = -secant_slopes(F, margins_new, v_new, f_z=f_new, f_zv=f_v_new)
        if not np.isfinite(w_next).all():
            i = int(np.argmin(np.isfinite(w_next)))
            raise ConfigError(
                f"loss {F.name!r} gives weight {float(w_next[i])!r} at margin "
                f"z={float(margins_new[i])!r} with offset {float(v_new[i])!r}"
            )
        if not np.count_nonzero(w_next):
            row.stop_reason = "zero_weights"
            return ens, rows
        w, v_prev, margins, loss_prev = w_next, v_new, margins_new, row.train_loss
        f, f_v = f_new, f_v_new

    rows[-1].stop_reason = "completed"
    return ens, rows


def guaranteed_decrease_bound(state: BoostIterState, alpha: float) -> float:
    """Certified minimum loss decrease a*eta^2*(1 - a*(1+eps)*M^2*w2_bar), a = alpha/eta.

    The guard records it as a row's decrease_bound.  Clamped at zero: when
    alpha saturates its certificate (halving route) the exact value is zero
    and rounding may land epsilon-negative.  A square beyond the float range
    raises OverflowError (float **).
    """
    if state.eta == 0.0:
        return 0.0
    a = alpha / state.eta
    raw = a * state.eta**2 * (1.0 - a * (1.0 + state.epsilon) * state.M**2 * state.w2_bar)
    return max(0.0, raw)


def convergence_certificate(telemetry: Iterable[BoostIterState], f0: float, target: float) -> bool:
    """Sufficient-progress test: sum of certified per-iteration gains >= 4*(f0-target).

    Each valid row contributes (w1_bar^2/w2_bar) * (1-pi^2)/(1+epsilon) *
    eta_tilde^2, with pi = 0 where unrecorded.
    """
    lhs = 0.0
    for row in telemetry:
        vals = (row.w1_bar, row.w2_bar, row.epsilon, row.eta_tilde)
        if any(not np.isfinite(v) for v in vals) or row.w2_bar <= 0.0:
            continue
        pi = 0.0 if row.pi is None else float(row.pi)
        lhs += (row.w1_bar**2 / row.w2_bar) * ((1.0 - pi * pi) / (1.0 + row.epsilon)) * row.eta_tilde**2
    return lhs >= 4.0 * (float(f0) - float(target))


def telemetry_to_csv(rows: Iterable[BoostIterState], fh) -> None:
    """Write the declared telemetry schema (and nothing more) as CSV."""
    fh.write(",".join(TELEMETRY_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in TELEMETRY_COLUMNS:
            value = getattr(row, col)
            cells.append(str(value) if col in ("t", "stop_reason") else repr(float(value)))
        fh.write(",".join(cells) + "\n")
