"""Chord-versus-curve geometry.

The booster never sees a gradient, so the usual Bregman divergence is replaced
by a secant version anchored on a chord, and the price of non-convexity is
measured by how far a chord's supporting line can rise above the loss over the
segment it spans (the "optimal bound information", OBI).  All maxima here are
grid maxima: grid_points counts uniform subintervals, so refining the grid by
an integer factor reuses every coarse abscissa and the maximum can only grow.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError
from .vderiv import v_derivative

__all__ = [
    "DEFAULT_GRID",
    "REFINE_FACTOR",
    "REFINE_MARGIN",
    "bregman_secant",
    "certifies",
    "obi",
    "q_star",
    "offset_feasible",
]

DEFAULT_GRID = 512

# Feasibility decisions within this distance of the budget re-run on a grid
# REFINE_FACTOR times finer before committing.
REFINE_FACTOR = 4
REFINE_MARGIN = 1e-6


def bregman_secant(F, zp: float, z: float, v: float) -> float:
    """Loss gap at zp minus the chord-slope linearization taken at z.

    B(zp || z) = F(zp) - F(z) - (zp - z) * slope of F through z, z+v.
    Unlike the gradient version this can be negative; the OBI below bounds
    how negative.
    """
    return F(zp) - F(z) - (zp - z) * v_derivative(F, z, v)


@functools.lru_cache(maxsize=32)
def ticks(n: int) -> np.ndarray:
    """The float64 range 0, 1, ..., n-1, cached and read-only."""
    out = np.arange(n, dtype=np.float64)
    out.flags.writeable = False
    return out


def _grid(lo: float, hi: float, grid_points: int) -> np.ndarray:
    """np.linspace(lo, hi, grid_points + 1) bit for bit: the same operations,
    including linspace's branch for a step that underflows to zero."""
    span = hi - lo
    step = span / grid_points
    if step == 0.0:
        xs = ticks(grid_points + 1) / grid_points
        xs *= span
    else:
        xs = ticks(grid_points + 1) * step
    xs += lo
    xs[-1] = hi
    return xs


def certifies(F) -> bool:
    """Does F's declared curvature certify its chord gaps?  Convex and declaring beta."""
    return F.is_convex and F.smoothness_beta is not None


def _certificate(beta: float, a, b, fa, fb, slope):
    """beta*(b-a)**2/8 plus ~32 ulps of rounding, elementwise on floats or arrays.

    On the chord's own segment of a convex loss declaring beta this bounds the
    chord gap on the whole continuum.  The square is d*d, not d**2: numpy
    squares arrays by multiplication, and Python's float pow is not always
    correctly rounded, so only d*d gives floats and arrays the same bits.
    """
    d = b - a
    bound = beta * (d * d) / 8.0
    scale = bound + np.maximum(abs(fa), abs(fb)) + abs(fb - fa) + abs(slope) * (abs(a) + abs(b))
    return bound + 64 * 2.0**-53 * scale


def _grid_gap(F, a: float, c: float, fa: float, slope: float, grid_points: int) -> float:
    """Grid maximum of fa + slope*(x - a) - F(x) over [min(a,c), max(a,c)]."""
    lo, hi = (a, c) if a <= c else (c, a)
    xs = _grid(lo, hi, grid_points)
    # fa + slope * (xs - a) - F(xs), in one buffer.
    gap = xs - a
    gap *= slope
    gap += fa
    gap -= F(xs)
    return float(gap.max())


def obi(
    F, a: float, b: float, c: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf
) -> float:
    """Grid maximum of (line through (a,F(a)) and (b,F(b))) - F over [min(a,c), max(a,c)].

    Always nonnegative: the segment includes a, where the line touches the loss.
    Degenerate chords (a == b) return 0.  On the chord's own segment (c == b) of
    a convex loss declaring beta, beta*(b-a)**2/8 plus ~32 ulps of rounding
    bounds the gap on the whole continuum; that certificate is returned without
    a grid when certify_below - cert >= REFINE_MARGIN (the default -inf: never).
    A grid point where the loss is NaN or inf raises ConfigError (calling F checks).

    Arrays a, b, c (one request per row) give an array, each row equal to the
    float call's result bit for bit: F is queried once at all a and once at
    all b, and rows the certificate does not decide take the float call's grid.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if isinstance(a, np.ndarray):
        return _obi_rows(F, a, b, c, grid_points, certify_below)
    if a == b:
        return 0.0
    fa = F(a)
    fb = F(b)
    slope = (fb - fa) / (b - a)
    if certify_below > -math.inf and c == b and certifies(F):
        cert = float(_certificate(F.smoothness_beta, a, b, fa, fb, slope))
        if certify_below - cert >= REFINE_MARGIN:  # no refine follows; NaN: to the grid
            return cert
    return _grid_gap(F, a, c, fa, slope, grid_points)


def _obi_rows(F, a, b, c, grid_points: int, certify_below) -> np.ndarray:
    """obi on arrays of requests (see obi)."""
    out = np.zeros(a.shape)
    live = np.flatnonzero(a != b)
    a, b, c = a[live], b[live], c[live]
    fa = F(a)
    fb = F(b)
    slope = (fb - fa) / (b - a)
    to_grid = np.ones(live.size, dtype=bool)
    if certify_below > -math.inf and certifies(F):
        cert = _certificate(F.smoothness_beta, a, b, fa, fb, slope)
        to_grid = (c != b) | ~(certify_below - cert >= REFINE_MARGIN)
        out[live[~to_grid]] = cert[~to_grid]
    for i in np.flatnonzero(to_grid).tolist():
        gap = _grid_gap(F, float(a[i]), float(c[i]), float(fa[i]), float(slope[i]), grid_points)
        out[live[i]] = gap
    return out


def q_star(
    F, z: float, zp: float, v: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf
) -> float:
    """Worst chord distortion for the offset v at z, against the target zp.

    For convex losses the chord can only dominate the loss between its own
    endpoints, so the segment is [z, z+v] regardless of zp; otherwise the
    segment runs from z to zp.  Together with bregman_secant this gives the
    guarantee B(zp || z) >= -q_star(z, zp, v), also when a certificate at least
    REFINE_MARGIN below certify_below stands in for the grid maximum (see obi).
    A loss value that is not finite on the grid raises ConfigError (see obi).
    Arrays z, zp, v give an array, row by row equal to the float calls.
    """
    b = z + v
    return obi(F, z, b, b if F.is_convex else zp, grid_points, certify_below)


def offset_feasible(F, e_t: float, e_prev: float, v: float, z_limit: float) -> bool:
    """Does the offset v at e_t keep the worst chord distortion within budget?

    Borderline calls (within REFINE_MARGIN of the budget) are re-decided on a
    REFINE_FACTOR-times finer grid.  A distortion that is not finite although
    every loss value was (the chord arithmetic overflowed) raises ConfigError
    naming the loss.  Arrays e_t, e_prev, v give a boolean array, row by row
    equal to the float calls: one q_star call on all rows, then one on the
    borderline rows.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    q = q_star(F, e_t, e_prev, v, DEFAULT_GRID, certify_below=z_limit)
    if isinstance(q, np.ndarray):
        rows = np.flatnonzero(abs(q - z_limit) < REFINE_MARGIN)
        if rows.size:
            q[rows] = q_star(F, e_t[rows], e_prev[rows], v[rows], DEFAULT_GRID * REFINE_FACTOR)
        if not np.isfinite(q).all():
            i = int(np.argmin(np.isfinite(q)))
            raise _overflow(F, float(q[i]), float(v[i]), float(e_t[i]))
        return q <= z_limit
    if abs(q - z_limit) < REFINE_MARGIN:
        q = q_star(F, e_t, e_prev, v, DEFAULT_GRID * REFINE_FACTOR)
    if not math.isfinite(q):
        raise _overflow(F, q, v, e_t)
    return q <= z_limit


def _overflow(F, q: float, v: float, z: float) -> ConfigError:
    return ConfigError(
        f"loss {F.name!r}: chord distortion {q!r} for the offset {v!r} at z={z!r}; "
        "the loss is finite there but the chord arithmetic overflowed"
    )
