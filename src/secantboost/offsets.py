"""Offset oracle: pick nonzero offsets whose chord distortion fits a budget.

Each boosting iteration needs, per example, an offset v pointing from the new
edge toward the previous one such that the worst chord distortion (q_star)
stays within the iteration's budget.  The oracle scans interior candidates at
a fixed resolution, keeps the secant with extremal slope, and retries at 4x
the resolution when that candidate is infeasible.  For a convex loss that
declares beta the extremal slope is the first candidate's, so a whole
iteration's requests are decided in one array pass.
"""

from __future__ import annotations

import numpy as np

from .bregman import certifies, offset_feasible, ticks

__all__ = [
    "DEFAULT_PRECISION_Z",
    "MAX_RETRIES",
    "find_offset",
    "sanitize_offset",
]

DEFAULT_PRECISION_Z = 64
# Restarts at 4x resolution before the oracle gives up on an example.
MAX_RETRIES = 5


def find_offset(
    F, e_t: float, e_prev: float, z_limit: float, precision_Z: int = DEFAULT_PRECISION_Z
) -> float | None:
    """Scan for a feasible offset between the edges; None when none is found.

    e_t is the fresh edge, e_prev the previous one (they must differ), and
    z_limit the distortion budget (positive).  Candidates are the interior
    abscissae e_t + k*(e_prev - e_t)/Z for k = 1..Z-1, from Z = precision_Z.
    Among them the secant anchored at (e_t, F(e_t)) with the extremal slope is
    kept — minimal slope when scanning rightward, maximal when scanning
    leftward, first extremum winning ties so the offset stays as short as
    possible.  The winner is accepted iff its worst chord distortion fits the
    budget; otherwise the scan restarts at 4x resolution, up to MAX_RETRIES
    restarts.  Returned offsets are nonzero and carry the sign of e_prev - e_t.

    Arrays e_t and e_prev (one request per row) give an array of offsets, or
    None when some row has none; F must be convex and declare beta.  The chord
    slope of a convex loss is nondecreasing, so in exact arithmetic the scan's
    extremal-slope candidate is always the first one (k=1).  Each row's
    offset is that candidate, v = (e_t + (e_prev - e_t)/Z) - e_t bit for bit,
    when it lies strictly between the edges and one offset_feasible call on
    those rows accepts it; every other row takes the float scan above.  Where
    rounding makes the float scan pick another candidate (spans below about
    1e-5) the array call still returns k=1, the exact answer and the shortest
    candidate.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    if precision_Z < 2:
        raise ValueError(f"precision_Z must be >= 2, got {precision_Z}")
    if isinstance(e_t, np.ndarray):
        return _find_offsets(F, e_t, e_prev, z_limit, int(precision_Z))
    if e_t == e_prev:
        raise ValueError("equal edges: caller must fall back to the previous offset")
    e_t, e_prev = float(e_t), float(e_prev)
    f_et = float(F(e_t))
    Z = int(precision_Z)
    for _ in range(MAX_RETRIES + 1):
        delta = (e_prev - e_t) / Z
        z_cand = e_t + delta * ticks(Z)[1:]
        gap = z_cand - e_t
        # Guard against float absorption: keep only candidates strictly
        # between the edges and distinct from both.
        inside = gap * (z_cand - e_prev) < 0.0
        if np.count_nonzero(inside) < inside.size:
            z_cand = z_cand[inside]
            gap = gap[inside]
        if z_cand.size:
            # Checked: a +inf candidate never wins the pick, so an unchecked
            # scan would pass a hole that the chosen chord stops short of.
            slopes = (np.asarray(F(z_cand), dtype=np.float64) - f_et) / gap
            pick = int(slopes.argmin()) if delta > 0 else int(slopes.argmax())
            v = float(gap[pick])
            if v != 0.0 and offset_feasible(F, e_t, e_prev, v, z_limit):
                return v
        Z *= 4
    return None


def _find_offsets(F, e_t: np.ndarray, e_prev: np.ndarray, z_limit: float, Z: int):
    """find_offset on arrays of requests (see find_offset)."""
    if not certifies(F):
        raise ValueError(f"loss {F.name!r}: array requests need a convex loss that declares beta")
    if np.any(e_t == e_prev):
        raise ValueError("equal edges: caller must fall back to the previous offset")
    z1 = e_t + (e_prev - e_t) / Z
    v = z1 - e_t
    first = np.flatnonzero(v * (z1 - e_prev) < 0.0)
    feasible = offset_feasible(F, e_t[first], e_prev[first], v[first], z_limit)
    scan = np.ones(v.size, dtype=bool)
    scan[first[feasible]] = False
    for i in np.flatnonzero(scan).tolist():
        v_i = find_offset(F, float(e_t[i]), float(e_prev[i]), z_limit, Z)
        if v_i is None:
            return None
        v[i] = v_i
    return v


def sanitize_offset(v: float, scale: float, seed: int) -> float:
    """Pass nonzero offsets through; replace zeros by a seeded random value.

    The replacement magnitude is uniform in [scale/2, scale] with a random
    sign, so downstream secants stay well away from a true derivative.
    """
    if not scale > 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    v = float(v)
    if abs(v) > 0.0:
        return v
    rng = np.random.default_rng(seed)
    magnitude = rng.uniform(scale / 2.0, scale)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return float(sign * magnitude)
