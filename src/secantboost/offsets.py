"""Offset oracle: pick nonzero offsets whose chord distortion fits a budget.

Each boosting iteration needs, per example, an offset v pointing from the new
edge toward the previous one such that the worst chord distortion (q_star)
stays within the iteration's budget.  The oracle scans interior candidates at
a fixed resolution, keeps the secant with extremal slope, and retries at 4x
the resolution when that candidate is infeasible.  An array of requests, for
any loss, is decided in array passes: each scans every row still open and
decides its picks with one feasibility call.
"""

from __future__ import annotations

import numpy as np

from .bregman import _row_blocks, offset_feasible, ticks

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
    F, e_t: float, e_prev: float, z_limit: float, precision_Z: int = DEFAULT_PRECISION_Z,
    *, fa=None,
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

    Arrays e_t and e_prev (one request per row), for any loss, give an array
    of offsets, or None when some row has none: passes at Z, 4Z, 16Z, ...
    scan all rows still open by the float scan's rules, in row blocks sized
    by points (see bregman), and decide their picks with one offset_feasible
    call, so each row equals the float call bit for bit.  One exception: a
    convex loss declaring smoothness_beta has a nondecreasing chord slope, so
    its extremal-slope candidate is k=1 in exact arithmetic, and each row
    first tries k=1 where it lies strictly between the edges.  At spans below
    about 1e-5, where rounding decides the float scan's pick, the array call
    may return k=1, the exact answer and the shortest candidate.  F(e_t)
    is read once, or taken from fa when the caller has read it, and every
    pass and decision takes it from there.  The float scan reads F(e_t) as
    point 0 of its one query per pass and takes no fa.
    """
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    if precision_Z < 2:
        raise ValueError(f"precision_Z must be >= 2, got {precision_Z}")
    Z = int(precision_Z)
    if isinstance(e_t, np.ndarray):
        return _find_offsets(F, e_t, e_prev, z_limit, Z, fa)
    if e_t == e_prev:
        raise ValueError("equal edges: caller must fall back to the previous offset")
    for _ in range(MAX_RETRIES + 1):
        delta = (e_prev - e_t) / Z
        # One loss query per pass: point 0 is e_t itself.  Checked: a +inf
        # candidate never wins the pick, so an unchecked scan would pass a
        # hole that the chosen chord stops short of.
        z_cand = e_t + delta * ticks(Z)
        f_cand = F(z_cand)
        f_et = float(f_cand[0])
        z_cand, f_cand = z_cand[1:], f_cand[1:]
        gap = z_cand - e_t
        # Guard against float absorption: keep only candidates strictly
        # between the edges and distinct from both.
        inside = gap * (z_cand - e_prev) < 0.0
        if np.count_nonzero(inside) < inside.size:
            z_cand, f_cand, gap = z_cand[inside], f_cand[inside], gap[inside]
        if z_cand.size:
            slopes = (f_cand - f_et) / gap
            pick = int(slopes.argmin()) if delta > 0 else int(slopes.argmax())
            v = float(gap[pick])
            # The decision reuses F(e_t), and F(e_t + v) where that sum is the candidate.
            f_b = float(f_cand[pick]) if e_t + v == z_cand[pick] else None
            if v != 0.0 and offset_feasible(F, e_t, e_prev, v, z_limit, fa=f_et, fb=f_b):
                return v
        Z *= 4
    return None


def _find_offsets(F, e_t: np.ndarray, e_prev: np.ndarray, z_limit: float, Z: int, fa):
    """find_offset on arrays of requests (see find_offset)."""
    if np.any(e_t == e_prev):
        raise ValueError("equal edges: caller must fall back to the previous offset")
    if fa is None:
        fa = F(e_t)
    v = np.empty(e_t.shape)
    rows = np.arange(e_t.size)
    rejected = None
    if F.is_convex and F.smoothness_beta is not None:
        z1 = e_t + (e_prev - e_t) / Z
        v = z1 - e_t
        rows = rows[~_accept(F, e_t, e_prev, v, v * (z1 - e_prev) < 0.0, z_limit, fa)]
        rejected = v[rows]
    f_et = fa[rows]
    for _ in range(MAX_RETRIES + 1):
        if not rows.size:
            break
        a, b = e_t[rows], e_prev[rows]
        pick, picked = _scan_pass(F, a, b, f_et, Z)
        if rejected is not None:
            # A pick equal to the k=1 offset just rejected (or not inside) is
            # rejected again: the decision is deterministic, so go on to 4Z.
            picked &= pick != rejected
            rejected = None
        done = _accept(F, a, b, pick, picked, z_limit, f_et)
        v[rows[done]] = pick[done]
        rows, f_et = rows[~done], f_et[~done]
        Z *= 4
    return None if rows.size else v


def _accept(F, e_t, e_prev, v, picked, z_limit: float, fa) -> np.ndarray:
    """picked, narrowed in place to the rows whose offset v fits the budget;
    fa is F(e_t)."""
    rows = np.flatnonzero(picked)
    if rows.size:
        picked[rows] = offset_feasible(F, e_t[rows], e_prev[rows], v[rows], z_limit, fa=fa[rows])
    return picked


def _scan_pass(F, e_t: np.ndarray, e_prev: np.ndarray, f_et: np.ndarray, Z: int):
    """One pass of the float scan at resolution Z on every row: (offsets, picked).

    The float scan's operations, elementwise, with F asked only inside the
    gap.  Leftward rows flip the sign of their slopes, which keeps ties, so a
    row's pick is its first argmin, with +inf at absorbed candidates.
    """
    v = np.empty(e_t.shape)
    picked = np.empty(e_t.shape, dtype=bool)
    for rows in _row_blocks(e_t.size, Z - 1):
        a, b = e_t[rows, None], e_prev[rows, None]
        delta = (b - a) / Z
        z_cand = delta * ticks(Z)[1:]
        z_cand += a
        gap = z_cand - a
        inside = gap * (z_cand - b) < 0.0
        rise = np.zeros(z_cand.shape)
        rise[inside] = F(z_cand[inside])
        rise -= f_et[rows, None]
        rise *= np.where(delta > 0, 1.0, -1.0)
        key = np.full(z_cand.shape, np.inf)
        np.divide(rise, gap, out=key, where=inside)
        # A row whose inside slopes are all +inf picks its first inside candidate.
        pick = np.where(key.min(axis=1) < np.inf, key.argmin(axis=1), inside.argmax(axis=1))
        at = np.arange(pick.size)
        v[rows], picked[rows] = gap[at, pick], inside[at, pick]
    return v, picked


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
