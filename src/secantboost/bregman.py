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
from .losses import finite_values
from .vderiv import v_derivative

__all__ = [
    "DEFAULT_GRID",
    "REFINE_FACTOR",
    "REFINE_MARGIN",
    "bregman_secant",
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
    zp = float(zp)
    z = float(z)
    return float(F(zp)) - float(F(z)) - (zp - z) * v_derivative(F, z, v)


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


def obi(
    F, a: float, b: float, c: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf
) -> float:
    """Grid maximum of (line through (a,F(a)) and (b,F(b))) - F over [min(a,c), max(a,c)].

    Always nonnegative: the segment includes a, where the line touches the loss.
    Degenerate chords (a == b) return 0.  On the chord's own segment (c == b) of
    a convex loss declaring beta, beta*(b-a)**2/8 plus ~32 ulps of rounding
    bounds the gap on the whole continuum; that certificate is returned without
    a grid when certify_below - cert >= REFINE_MARGIN (the default -inf: never).
    A grid value where F is not finite makes the result NaN or inf.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if a == b:
        return 0.0
    fa = float(F(a))
    fb = float(F(b))
    slope = (fb - fa) / (b - a)
    if certify_below > -math.inf and c == b and F.is_convex and F.smoothness_beta is not None:
        bound = F.smoothness_beta * (b - a) ** 2 / 8.0
        scale = bound + max(abs(fa), abs(fb)) + abs(fb - fa) + abs(slope) * (abs(a) + abs(b))
        cert = bound + 64 * 2.0**-53 * scale
        if certify_below - cert >= REFINE_MARGIN:  # no refine follows; NaN: to the grid
            return cert
    lo, hi = (a, c) if a <= c else (c, a)
    xs = _grid(lo, hi, grid_points)
    # fa + slope * (xs - a) - F(xs), in one buffer.
    gap = xs - a
    gap *= slope
    gap += fa
    gap -= F(xs)
    # max() passes over the -inf gap where F is +inf.
    return float(gap.max()) if gap.min() > -math.inf else math.nan


def q_star(
    F, z: float, zp: float, v: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf
) -> float:
    """Worst chord distortion for the offset v at z, against the target zp.

    For convex losses the chord can only dominate the loss between its own
    endpoints, so the segment is [z, z+v] regardless of zp; otherwise the
    segment runs from z to zp.  Together with bregman_secant this gives the
    guarantee B(zp || z) >= -q_star(z, zp, v), also when a certificate at least
    REFINE_MARGIN below certify_below stands in for the grid maximum (see obi).
    """
    b = float(z + v)
    return obi(F, float(z), b, b if F.is_convex else float(zp), grid_points, certify_below)


def offset_feasible(F, e_t: float, e_prev: float, v: float, z_limit: float) -> bool:
    """Does the offset v at e_t keep the worst chord distortion within budget?

    Borderline calls (within REFINE_MARGIN of the budget) are re-decided on a
    REFINE_FACTOR-times finer grid.  A distortion that is not finite (the loss
    is NaN between the edges, or the chord arithmetic overflowed) raises
    ConfigError naming the loss.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    grid_points = DEFAULT_GRID
    q = q_star(F, e_t, e_prev, v, grid_points, certify_below=z_limit)
    if abs(q - z_limit) < REFINE_MARGIN:
        grid_points *= REFINE_FACTOR
        q = q_star(F, e_t, e_prev, v, grid_points)
    if not math.isfinite(q):
        # Name the first non-finite loss value on the segment, if there is one.
        c = e_t + v if F.is_convex else e_prev
        finite_values(F, np.append(_grid(*sorted((e_t, c)), grid_points), e_t + v))
        raise ConfigError(
            f"loss {F.name!r}: chord distortion {q!r} for the offset {v!r} at z={e_t!r}; "
            "the loss is finite there but the chord arithmetic overflowed"
        )
    return q <= z_limit
