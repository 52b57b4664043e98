"""Chord-versus-curve geometry.

The booster never sees a gradient, so the usual Bregman divergence is replaced
by a secant version anchored on a chord, and the price of non-convexity is
measured by how far a chord's supporting line can rise above the loss over the
segment it spans (the "optimal bound information", OBI).  Maxima here are
grid maxima: grid_points counts uniform subintervals, so refining the grid by
an integer factor reuses every coarse abscissa and the maximum can only grow.
The exception is the certificate of a loss that declares a one-sided
curvature bound, or a minorant that declares one: it bounds the maximum on
the whole continuum.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConfigError
from .losses import _curvature
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

# Subintervals of the coarse grid behind a curvature certificate, except on
# the chord's own segment of a loss that certifies itself.
_CERT_GRID = 64

# Points per block of a 2-d (rows x grid or candidates) pass, so that each of
# its temporaries stays near half a megabyte whatever the rows and their width.
_BLOCK_POINTS = 1 << 16


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
    """Does F's own declared curvature certify its chord gaps?  Convex and
    declaring smoothness_beta, or declaring curvature_bound.

    This is the driver's test for deciding offsets as one array request.  A
    loss certified only through its minorant (spring) answers False and is
    decided one float call per example, whose certificate reads no value of
    F between the chord's endpoints: it trusts G <= F there.
    """
    return _curvature(F) is not None


def _certifier(F):
    """(G, beta): the loss whose declared curvature beta certifies F's chord
    gaps, F itself or else its minorant; None when neither declares one."""
    beta = _curvature(F)
    if beta is not None:
        return F, beta
    if F.minorant is not None:
        return F.minorant, _curvature(F.minorant)
    return None


def _row_blocks(n: int, width: int):
    """Slices of n rows, width points each, into blocks of _BLOCK_POINTS points or one row."""
    step = max(1, _BLOCK_POINTS // width)
    return (slice(start, start + step) for start in range(0, n, step))


def _grid_rows(lo: np.ndarray, hi: np.ndarray, grid_points: int) -> np.ndarray:
    """_grid(lo[i], hi[i], grid_points) as row i, bit for bit."""
    span = (hi - lo)[:, None]
    step = span / grid_points
    t = ticks(grid_points + 1)
    xs = np.where(step == 0.0, t / grid_points * span, t * step)
    xs += lo[:, None]
    xs[:, -1] = hi
    return xs


def _certificate(F, G, beta: float, a, b, c, fa, fb, slope) -> np.ndarray:
    """Per row, a bound on fa + slope*(x - a) - F(x) on the continuum between a and c.

    G <= F (G is F itself or its minorant) and G - beta*x**2/2 is concave, so
    the line minus G bounds the gap and plus beta*x**2/2 is convex: on a
    grid of largest spacing h its continuum maximum exceeds its grid maximum
    by at most beta*h**2/8.  When G is F, on the chord's own segment (c == b)
    the grid is {a, b}, where the gap is zero, and the bound is
    beta*(b-a)**2/8.  Other rows read G on _CERT_GRID subintervals of the
    segment; a minorant's line minus G is not zero at the chord's ends, so
    its rows all do.  About 32 ulps of the terms' scale absorb the rounding
    of both this grid and any grid it is compared with.  The square is h*h,
    not h**2: numpy squares arrays by multiplication, and Python's float pow
    is not always correctly rounded.  a, b, c, fa, fb, slope are 1-d arrays;
    _float_certificate is one row of this, bit for bit.
    """
    h = b - a
    bound = beta * (h * h) / 8.0
    f_max = np.maximum(abs(fa), abs(fb))
    on_grid = np.flatnonzero(c != b) if G is F else np.arange(a.size)
    for block in _row_blocks(on_grid.size, _CERT_GRID + 1):
        rows = on_grid[block]
        a_r, c_r = a[rows], c[rows]
        xs = _grid_rows(np.minimum(a_r, c_r), np.maximum(a_r, c_r), _CERT_GRID)
        gx = G(xs)
        # fa + slope * (xs - a) - G(xs), with _grid_gap's operations.
        gap = xs - a_r[:, None]
        gap *= slope[rows, None]
        gap += fa[rows, None]
        gap -= gx
        h = np.diff(xs, axis=1).max(axis=1)
        bound[rows] = gap.max(axis=1) + beta * (h * h) / 8.0
        f_max[rows] = np.maximum(abs(fa[rows]), abs(gx).max(axis=1))
    scale = bound + f_max + abs(fb - fa) + abs(slope) * (abs(a) + abs(c))
    return bound + 64 * 2.0**-53 * scale


def _float_certificate(F, G, beta: float, a, b, c, fa, fb, slope) -> float:
    """_certificate for one row of floats, with the same operations and bits."""
    if G is F and c == b:
        h = b - a
        bound = beta * (h * h) / 8.0
        f_max = max(abs(fa), abs(fb))
    else:
        lo, hi = (a, c) if a <= c else (c, a)
        xs = _grid(lo, hi, _CERT_GRID)
        gx = G(xs)
        gap = xs - a
        gap *= slope
        gap += fa
        gap -= gx
        h = float(np.diff(xs).max())
        bound = float(gap.max()) + beta * (h * h) / 8.0
        f_max = max(abs(fa), float(abs(gx).max()))
    scale = bound + f_max + abs(fb - fa) + abs(slope) * (abs(a) + abs(c))
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
    F, a: float, b: float, c: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf,
    fa: float | None = None, fb: float | None = None,
) -> float:
    """Grid maximum of (line through (a,F(a)) and (b,F(b))) - F over [min(a,c), max(a,c)].

    Always nonnegative: the segment includes a, where the line touches the loss.
    Degenerate chords (a == b) return 0.  For a loss that declares a one-sided
    curvature bound beta (see certifies), a certificate bounds the gap on the
    whole continuum: beta*(b-a)**2/8 on the chord's own segment (c == b),
    else the maximum on a 64-subinterval grid plus beta*h**2/8 for its spacing
    h, each plus ~32 ulps of rounding.  A loss certified through its minorant
    G instead bounds the line minus G: always the 64-subinterval grid of G,
    plus beta*h**2/8 with G's beta, plus the rounding.  The certificate is
    returned without the grid when certify_below - cert >= REFINE_MARGIN (the
    default -inf: never).  A grid point where the loss is NaN or inf raises
    ConfigError (calling F checks); a certified value sees such a point only
    where one of the coarse grid's points lands on it, and never between the
    chord's endpoints when the grid is G's.

    fa and fb, float calls only, are F(a) and F(b) when the caller has read
    them; F is then not asked again.

    Arrays a, b, c (one request per row) give an array, each row equal to the
    float call's result bit for bit: F is queried once at all a, once at all
    b and, for the certificate, F or G once on every row's coarse grid, and
    rows the certificate does not decide take the float call's grid.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    if isinstance(a, np.ndarray):
        return _obi_rows(F, a, b, c, grid_points, certify_below)
    if a == b:
        return 0.0
    if fa is None:
        fa = F(a)
    if fb is None:
        fb = F(b)
    slope = (fb - fa) / (b - a)
    certifier = _certifier(F) if certify_below > -math.inf else None
    if certifier is not None:
        cert = _float_certificate(F, *certifier, a, b, c, fa, fb, slope)
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
    certifier = _certifier(F) if certify_below > -math.inf else None
    if certifier is not None:
        cert = _certificate(F, *certifier, a, b, c, fa, fb, slope)
        to_grid = ~(certify_below - cert >= REFINE_MARGIN)
        out[live[~to_grid]] = cert[~to_grid]
    for i in np.flatnonzero(to_grid).tolist():
        gap = _grid_gap(F, float(a[i]), float(c[i]), float(fa[i]), float(slope[i]), grid_points)
        out[live[i]] = gap
    return out


def q_star(
    F, z: float, zp: float, v: float, grid_points: int = DEFAULT_GRID, certify_below=-math.inf,
    fa: float | None = None, fb: float | None = None,
) -> float:
    """Worst chord distortion for the offset v at z, against the target zp.

    For convex losses the chord can only dominate the loss between its own
    endpoints, so the segment is [z, z+v] regardless of zp; otherwise the
    segment runs from z to zp.  Together with bregman_secant this gives the
    guarantee B(zp || z) >= -q_star(z, zp, v), also when a certificate at least
    REFINE_MARGIN below certify_below stands in for the grid maximum (see obi):
    beta*v**2/8 for a convex loss declaring smoothness_beta, for a loss
    declaring curvature_bound a 64-subinterval grid of [z, zp] plus beta*h**2/8,
    and for a loss declaring a minorant the same from the minorant's grid.
    A loss value that is not finite on the grid raises ConfigError (see obi).
    fa and fb, float calls only, are F(z) and F(z+v) when the caller has them.
    Arrays z, zp, v give an array, row by row equal to the float calls.
    """
    b = z + v
    return obi(F, z, b, b if F.is_convex else zp, grid_points, certify_below, fa, fb)


def offset_feasible(
    F, e_t: float, e_prev: float, v: float, z_limit: float,
    fa: float | None = None, fb: float | None = None,
) -> bool:
    """Does the offset v at e_t keep the worst chord distortion within budget?

    Borderline calls (within REFINE_MARGIN of the budget) are re-decided on a
    REFINE_FACTOR-times finer grid.  A distortion that is not finite although
    every loss value was (the chord arithmetic overflowed) raises ConfigError
    naming the loss.  fa and fb, float calls only, are F(e_t) and F(e_t+v)
    when the caller has read them, and serve both decisions.  Arrays e_t,
    e_prev, v give a boolean array, row by row equal to the float calls: one
    q_star call on all rows, then one on the borderline rows.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    q = q_star(F, e_t, e_prev, v, DEFAULT_GRID, certify_below=z_limit, fa=fa, fb=fb)
    if isinstance(q, np.ndarray):
        rows = np.flatnonzero(abs(q - z_limit) < REFINE_MARGIN)
        if rows.size:
            q[rows] = q_star(F, e_t[rows], e_prev[rows], v[rows], DEFAULT_GRID * REFINE_FACTOR)
        if not np.isfinite(q).all():
            i = int(np.argmin(np.isfinite(q)))
            raise _overflow(F, float(q[i]), float(v[i]), float(e_t[i]))
        return q <= z_limit
    if abs(q - z_limit) < REFINE_MARGIN:
        q = q_star(F, e_t, e_prev, v, DEFAULT_GRID * REFINE_FACTOR, fa=fa, fb=fb)
    if not math.isfinite(q):
        raise _overflow(F, q, v, e_t)
    return q <= z_limit


def _overflow(F, q: float, v: float, z: float) -> ConfigError:
    return ConfigError(
        f"loss {F.name!r}: chord distortion {q!r} for the offset {v!r} at z={z!r}; "
        "the loss is finite there but the chord arithmetic overflowed"
    )
