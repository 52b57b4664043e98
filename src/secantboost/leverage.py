"""Choosing the ensemble coefficient for one boosting iteration.

Two routes produce the triple (alpha, w2_bar, epsilon):

* the smoothness route, available when the loss declares a curvature bound
  beta — alpha is the midpoint of the admissible interval with w2_bar = 2*beta;
* the halving search, which needs only loss values — alpha is halved from
  delta_init until the partial-weight edge stays within one edge-length of the
  current edge, and (w2_bar, epsilon) are derived from the accepted alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DiscontinuityCollisionError
from .offsets import sanitize_offset
from .vderiv import MIN_OFFSET, V_derivative_expansion, secant_slopes

__all__ = [
    "HALVING_CAP",
    "LeveragingResult",
    "edge",
    "partial_weights",
    "find_alpha",
    "second_order_mean",
    "w2_from_alpha",
    "epsilon_from",
    "alpha_from_smoothness",
]

# Halving from the default start _DELTA_INIT two hundred times reaches ~1e-60;
# a loss that is continuous at every edge must accept long before that, so
# running out is treated as a discontinuity sitting exactly on an edge.  A
# larger start gets the extra halvings down to _DELTA_INIT on top.
_DELTA_INIT = 1.0
HALVING_CAP = 200

_W_FALLBACK_CAP = 2000


@dataclass(frozen=True)
class LeveragingResult:
    """A route's coefficient and its certificate pair; the driver's guard
    records the step it accepts, route and pi included, in the telemetry row."""

    alpha: float
    w2_bar: float
    epsilon: float


def _h_values(S, h, h_values=None) -> np.ndarray:
    if h_values is None:
        return np.asarray(h.predict_dataset(S), dtype=np.float64)
    return np.asarray(h_values, dtype=np.float64)


def _margins(S, H_prev, margins_prev=None) -> np.ndarray:
    if margins_prev is None:
        return np.asarray(S.labels, dtype=np.float64) * H_prev.predict_dataset(S)
    return np.asarray(margins_prev, dtype=np.float64)


def edge(w, S, h, *, h_values=None) -> float:
    """Unnormalized edge (1/m) * sum_i w_i y_i h(x_i)."""
    w = np.asarray(w, dtype=np.float64)
    hv = _h_values(S, h, h_values)
    return float(np.mean(w * np.asarray(S.labels, dtype=np.float64) * hv))


def partial_weights(
    F, S, H_prev, h, v_prev, alpha: float, *, margins_prev=None, h_values=None
) -> np.ndarray:
    """Weights the next iteration would see if the coefficient were alpha.

    w~_i(alpha) = -slope of F through the prospective edge
    alpha*y_i*h(x_i) + y_i*H_prev(x_i) and that point shifted by the
    previous offset v_prev_i.
    """
    y = np.asarray(S.labels, dtype=np.float64)
    hv = _h_values(S, h, h_values)
    z = alpha * y * hv + _margins(S, H_prev, margins_prev)
    return -secant_slopes(F, z, np.asarray(v_prev, dtype=np.float64))


def find_alpha(
    F,
    S,
    H_prev,
    w,
    h,
    v_prev,
    delta_init: float = _DELTA_INIT,
    *,
    margins_prev=None,
    h_values=None,
) -> float:
    """Halve a step from delta_init until the partial-weight edge is close.

    Accepts the first a with |eta(w) - eta(w~(sign(eta)*a))| < |eta(w)| and
    returns sign(eta)*a.  For losses continuous at every current edge, small
    steps make the partial weights converge back to w, so termination is
    guaranteed; a loss with a jump exactly on an edge can refuse every step,
    which surfaces as DiscontinuityCollisionError after the cap.  The cap is
    HALVING_CAP halvings below _DELTA_INIT: a larger delta_init first gets
    the halvings that bring it down to _DELTA_INIT.  A loss that is not
    finite at a trial abscissa raises ConfigError, and so does reaching the
    cap after a trial edge that was not finite (finite loss values whose
    slopes or their mean overflowed), naming the first such alpha.
    """
    if not 0.0 < delta_init < math.inf:
        raise ValueError(f"delta_init must be positive and finite, got {delta_init}")
    cap = HALVING_CAP + max(0, math.ceil(math.log2(delta_init / _DELTA_INIT)))
    hv = _h_values(S, h, h_values)
    margins_prev = _margins(S, H_prev, margins_prev)
    eta = edge(w, S, h, h_values=hv)
    if eta == 0.0:
        raise ValueError("zero edge: weak learning assumption violated")
    sgn = 1.0 if eta > 0 else -1.0
    delta = float(delta_init)
    overflow = None  # (alpha, trial edge) for the first trial edge that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cap):
            alpha = sgn * delta
            trial = partial_weights(
                F, S, H_prev, h, v_prev, alpha, margins_prev=margins_prev, h_values=hv
            )
            eta_trial = edge(trial, S, h, h_values=hv)
            if abs(eta - eta_trial) < abs(eta):
                return alpha
            if overflow is None and not math.isfinite(eta_trial):
                overflow = alpha, eta_trial
            delta /= 2.0
    if overflow is not None:
        alpha, eta_trial = overflow
        raise ConfigError(
            f"loss {F.name!r} overflows FindAlpha's trial edge to {eta_trial!r} at "
            f"alpha={alpha!r}; no step accepted after {cap} halvings from {delta_init}"
        )
    raise DiscontinuityCollisionError(
        f"no step accepted after {cap} halvings from {delta_init}; "
        "the loss appears discontinuous at a current edge"
    )


def second_order_mean(
    F, margins_prev, e, v_prev, h_values, M: float, *, f_z=None, f_zv=None, f_ze=None
) -> float:
    """Signed mean of (h(x_i)/M)^2 times the order-2 nested slope.

    The nested slope sits at the previous edge with offsets (e_i, v_prev_i);
    e entries below MIN_OFFSET in magnitude (a step that underflowed) are
    replaced by a tiny seeded value so no term degenerates into a derivative.
    f_z, f_zv and f_ze are F(z), F(z+v_prev) and F(z+e) at z = margins_prev
    when the caller has read them; F is then asked only at z+e+v_prev, and
    at z+e on the rows whose e was replaced.
    """
    e = np.array(e, dtype=np.float64)
    tiny = np.flatnonzero(np.abs(e) < MIN_OFFSET)
    for i in tiny.tolist():
        e[i] = sanitize_offset(0.0, 1e-12, seed=i)
    z = np.asarray(margins_prev, dtype=np.float64)
    if f_ze is not None and tiny.size:
        f_ze = np.array(f_ze, dtype=np.float64)
        f_ze[tiny] = F(z[tiny] + e[tiny])
    v_prev = np.asarray(v_prev, dtype=np.float64)
    second = V_derivative_expansion(F, z, [e, v_prev], values=(f_z, f_zv, f_ze, None))
    hv = np.asarray(h_values, dtype=np.float64)
    return float(np.mean((hv / M) ** 2 * second))


def w2_from_alpha(
    F,
    S,
    H_prev,
    h,
    v_prev,
    alpha: float,
    M: float,
    *,
    eta: float,
    margins_prev=None,
    h_values=None,
    f_z=None,
    f_zv=None,
) -> float:
    """Second-order certificate |E_i[(h(x_i)/M)^2 * nested slope]| for alpha.

    The nested slope is taken at the previous edge with offsets
    (alpha*y_i*h(x_i), v_prev_i).  When the expectation lands on machine zero
    (affine losses, say), falls back to halving W from 1.0 until
    |alpha| <= |eta|/(W*M^2), which is all the downstream budget needs.
    f_z and f_zv are F and F(. + v_prev) at the previous edges when the
    caller has read them (see second_order_mean).
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero")
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    y = np.asarray(S.labels, dtype=np.float64)
    hv = _h_values(S, h, h_values)
    z = _margins(S, H_prev, margins_prev)
    w2 = abs(second_order_mean(F, z, alpha * y * hv, v_prev, hv, M, f_z=f_z, f_zv=f_zv))
    if w2 > 0.0:
        return w2
    W = 1.0
    for _ in range(_W_FALLBACK_CAP):
        if abs(alpha) <= abs(eta) / (W * M * M):
            return W
        W /= 2.0
    raise RuntimeError("could not certify alpha against a vanishing second-order term")


def epsilon_from(alpha: float, w2_bar: float, eta: float, M: float) -> float:
    """Slack epsilon = b_sup/|alpha| - 1 with b_sup = |eta|/(w2_bar*M^2)."""
    if not w2_bar > 0.0:
        raise ValueError(f"w2_bar must be positive, got {w2_bar}")
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    b_sup = abs(eta) / (w2_bar * M * M)
    if not 0.0 < abs(alpha) < b_sup:
        raise ValueError(f"alpha={alpha} outside (0, b_sup={b_sup}) in magnitude")
    return b_sup / abs(alpha) - 1.0


def alpha_from_smoothness(eta: float, beta: float, M: float, epsilon: float) -> LeveragingResult:
    """Midpoint coefficient for a beta-smooth loss:
    alpha = eta / (2*(1+epsilon)*M^2*w2_bar) with w2_bar = 2*beta."""
    if eta == 0.0:
        raise ValueError("zero edge: weak learning assumption violated")
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not M > 0.0:
        raise ValueError(f"M must be positive, got {M}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w2_bar = 2.0 * beta
    alpha = eta / (2.0 * (1.0 + epsilon) * M * M * w2_bar)
    return LeveragingResult(alpha=alpha, w2_bar=w2_bar, epsilon=epsilon)
