"""Offset oracle: pick nonzero offsets whose chord distortion fits a budget.

Each boosting iteration needs, per example, an offset v pointing from the new
edge toward the previous one such that the worst chord distortion (q_star)
stays within the iteration's budget.  The oracle scans interior candidates at
a fixed resolution, keeps the secant with extremal slope, and retries at 4x
the resolution when that candidate is infeasible.  For a loss whose chord
gaps certify (see bregman.certifies) a whole iteration's requests are decided
in one array pass, and only the rows it rejects are scanned one by one.
"""

from __future__ import annotations

import numpy as np

from .bregman import _ROW_BLOCK, certifies, offset_feasible, ticks

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
    None when some row has none; F's chord gaps must certify (a convex loss
    declaring smoothness_beta, or any loss declaring curvature_bound).  The
    first pass picks one candidate per row and decides all picks with one
    offset_feasible call; the rows it rejects take the float scan.
    - A loss with a curvature_bound: the pick is the float scan's, bit for
      bit, from one scan of all rows' candidates, so every row's offset
      equals the float call's.  A rejected row resumes the float scan at 4Z.
    - A convex loss declaring smoothness_beta: its chord slope is
      nondecreasing, so in exact arithmetic the extremal-slope candidate is
      the first one (k=1), and the pick is v = (e_t + (e_prev - e_t)/Z) - e_t
      bit for bit when it lies strictly between the edges.  Where rounding
      makes the float scan pick another candidate (spans below about 1e-5)
      the array call still returns k=1, the exact answer and the shortest
      candidate.  A rejected row takes the whole float scan.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    if precision_Z < 2:
        raise ValueError(f"precision_Z must be >= 2, got {precision_Z}")
    if isinstance(e_t, np.ndarray):
        return _find_offsets(F, e_t, e_prev, z_limit, int(precision_Z))
    if e_t == e_prev:
        raise ValueError("equal edges: caller must fall back to the previous offset")
    return _scan(F, e_t, e_prev, z_limit, int(precision_Z), MAX_RETRIES + 1)


def _scan(F, e_t: float, e_prev: float, z_limit: float, Z: int, passes: int) -> float | None:
    """The float scan of find_offset, in passes at resolutions Z, 4Z, 16Z, ..."""
    f_et = F(e_t)
    for _ in range(passes):
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
            slopes = (F(z_cand) - f_et) / gap
            pick = int(slopes.argmin()) if delta > 0 else int(slopes.argmax())
            v = float(gap[pick])
            if v != 0.0 and offset_feasible(F, e_t, e_prev, v, z_limit):
                return v
        Z *= 4
    return None


def _find_offsets(F, e_t: np.ndarray, e_prev: np.ndarray, z_limit: float, Z: int):
    """find_offset on arrays of requests (see find_offset)."""
    if not certifies(F):
        raise ValueError(
            f"loss {F.name!r}: array requests need a convex loss that declares beta, "
            "or a loss that declares curvature_bound"
        )
    if np.any(e_t == e_prev):
        raise ValueError("equal edges: caller must fall back to the previous offset")
    if F.is_convex and F.smoothness_beta is not None:
        z1 = e_t + (e_prev - e_t) / Z
        v = z1 - e_t
        picked = v * (z1 - e_prev) < 0.0
        scans_own_pick = False  # k=1, which the float scan may not pick
    else:
        v = np.empty(e_t.shape)
        picked = np.zeros(e_t.shape, dtype=bool)
        for start in range(0, e_t.size, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            v[rows], picked[rows] = _first_pass_picks(F, e_t[rows], e_prev[rows], Z)
        scans_own_pick = True
    rows = np.flatnonzero(picked)
    rejected = ~picked
    rejected[rows] = ~offset_feasible(F, e_t[rows], e_prev[rows], v[rows], z_limit)
    for i in np.flatnonzero(rejected).tolist():
        if scans_own_pick and picked[i]:  # the float scan's first pass, rejected
            v_i = _scan(F, float(e_t[i]), float(e_prev[i]), z_limit, 4 * Z, MAX_RETRIES)
        else:
            v_i = _scan(F, float(e_t[i]), float(e_prev[i]), z_limit, Z, MAX_RETRIES + 1)
        if v_i is None:
            return None
        v[i] = v_i
    return v


def _first_pass_picks(F, e_t: np.ndarray, e_prev: np.ndarray, Z: int):
    """The float scan's first-pass pick on every row at once: (offsets, picked).

    Candidates, absorption guard and slopes take the float scan's operations
    elementwise, and F is asked only at candidates inside the gap.  Leftward
    rows flip the sign of their slopes, which keeps ties, so a row's pick is
    its first argmin, with +inf at absorbed candidates.  A pick inside the gap
    is the float scan's pick.  A pick on an absorbed candidate (no candidate
    inside, or every inside slope +inf) is not picked, and its row takes the
    whole float scan.
    """
    delta = (e_prev - e_t) / Z
    z_cand = np.multiply.outer(delta, ticks(Z)[1:])
    z_cand += e_t[:, None]
    gap = z_cand - e_t[:, None]
    inside = gap * (z_cand - e_prev[:, None]) < 0.0
    rise = np.zeros(z_cand.shape)
    rise[inside] = F(z_cand[inside])
    rise -= F(e_t)[:, None]
    rise *= np.where(delta > 0, 1.0, -1.0)[:, None]
    key = np.full(z_cand.shape, np.inf)
    np.divide(rise, gap, out=key, where=inside)
    pick = key.argmin(axis=1)
    rows = np.arange(e_t.size)
    return gap[rows, pick], inside[rows, pick]


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
