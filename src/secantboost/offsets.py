"""Offset oracle: pick nonzero offsets whose chord distortion fits a budget.

Each boosting iteration needs, per example, an offset v pointing from the new
edge toward the previous one such that the worst chord distortion (q_star)
stays within the iteration's budget.  The oracle scans interior candidates at
a fixed resolution, keeps the secant with extremal slope, and retries at 4x
the resolution when that candidate is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import DEFAULT_GRID, offset_feasible, ticks

__all__ = [
    "DEFAULT_PRECISION_Z",
    "DEFAULT_MAX_RETRIES",
    "OffsetRequest",
    "find_offset",
    "sanitize_offset",
]

DEFAULT_PRECISION_Z = 64
DEFAULT_MAX_RETRIES = 5


@dataclass(frozen=True)
class OffsetRequest:
    """One per-example offset query.

    e_t is the fresh edge, e_prev the previous one; z_limit the distortion
    budget (always positive).  precision_Z sets the initial scan resolution;
    each retry multiplies it by 4.
    """

    e_t: float
    e_prev: float
    z_limit: float
    precision_Z: int = DEFAULT_PRECISION_Z
    max_retries: int = DEFAULT_MAX_RETRIES

    def __post_init__(self):
        if not self.z_limit > 0.0:
            raise ValueError(f"z_limit must be positive, got {self.z_limit}")
        if self.precision_Z < 2:
            raise ValueError(f"precision_Z must be >= 2, got {self.precision_Z}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if self.e_t == self.e_prev:
            raise ValueError("equal edges: caller must fall back to the previous offset")


def find_offset(F, req: OffsetRequest, grid_points: int = DEFAULT_GRID) -> float | None:
    """Scan for a feasible offset between the edges; None when none is found.

    Candidates are the interior abscissae e_t + k*(e_prev - e_t)/Z for
    k = 1..Z-1.  Among them the secant anchored at (e_t, F(e_t)) with the
    extremal slope is kept — minimal slope when scanning rightward, maximal
    when scanning leftward, first extremum winning ties so the offset stays as
    short as possible.  The winner is accepted iff its worst chord distortion
    fits the budget; otherwise the scan restarts at 4x resolution, up to
    max_retries restarts.  Returned offsets are nonzero and carry the sign of
    e_prev - e_t.
    """
    e_t = float(req.e_t)
    e_prev = float(req.e_prev)
    f_et = float(F(e_t))
    Z = int(req.precision_Z)
    for _ in range(req.max_retries + 1):
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
            slopes = (np.asarray(F(z_cand), dtype=np.float64) - f_et) / gap
            pick = int(slopes.argmin()) if delta > 0 else int(slopes.argmax())
            v = float(gap[pick])
            if v != 0.0 and offset_feasible(F, e_t, e_prev, v, req.z_limit, grid_points):
                return v
        Z *= 4
    return None


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
