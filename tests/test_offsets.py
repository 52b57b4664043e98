"""Tests for the per-example offset oracle."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from secantboost import (
    ObiQuery,
    OffsetRequest,
    find_offset,
    make_builtin,
    obi,
    offset_feasible,
    q_star,
    sanitize_offset,
    table_loss,
)
from secantboost.bregman import DEFAULT_GRID, REFINE_FACTOR, REFINE_MARGIN, _grid
from secantboost.offsets import DEFAULT_MAX_RETRIES, DEFAULT_PRECISION_Z


class TestOffsetRequest:
    def test_defaults(self):
        req = OffsetRequest(e_t=0.0, e_prev=1.0, z_limit=0.1)
        assert req.precision_Z == DEFAULT_PRECISION_Z == 64
        assert req.max_retries == DEFAULT_MAX_RETRIES == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="z_limit"):
            OffsetRequest(0.0, 1.0, z_limit=0.0)
        with pytest.raises(ValueError, match="precision_Z"):
            OffsetRequest(0.0, 1.0, z_limit=0.1, precision_Z=1)
        with pytest.raises(ValueError, match="max_retries"):
            OffsetRequest(0.0, 1.0, z_limit=0.1, max_retries=0)
        with pytest.raises(ValueError, match="equal edges"):
            OffsetRequest(0.5, 0.5, z_limit=0.1)


class TestFindOffset:
    def test_sign_matches_gap_direction(self):
        F = make_builtin("logistic")
        right = find_offset(F, OffsetRequest(0.0, 1.0, z_limit=0.5))
        left = find_offset(F, OffsetRequest(1.0, 0.0, z_limit=0.5))
        assert right is not None and right > 0
        assert left is not None and left < 0

    def test_offset_stays_inside_gap(self):
        F = make_builtin("spring", Q=10.0)
        req = OffsetRequest(-0.3, 0.9, z_limit=0.05)
        v = find_offset(F, req)
        assert v is not None
        assert 0.0 < v < req.e_prev - req.e_t

    def test_extremal_slope_candidate_wins(self):
        # On the parabola (1-z)^2 scanned rightward from e_t=0, secant slope
        # through 0 and x is x - 2: strictly increasing in x, so the very
        # first interior candidate (k=1) has the minimal slope.
        F = make_builtin("square")
        req = OffsetRequest(0.0, 1.0, z_limit=10.0, precision_Z=8)
        v = find_offset(F, req)
        assert v == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_leftward_scan_keeps_maximal_slope(self):
        # Scanning leftward on the same parabola, slope through 0 and x is
        # still x - 2, now maximized by the candidate nearest e_t: k=1 again.
        F = make_builtin("square")
        req = OffsetRequest(1.0, 0.0, z_limit=10.0, precision_Z=8)
        v = find_offset(F, req)
        assert v == pytest.approx(-1.0 / 8.0, rel=1e-12)

    def test_first_extremum_wins_ties(self):
        # A flat table loss makes every candidate slope identical; the scan
        # must keep the first (shortest) offset rather than a later tie.
        from secantboost import table_loss

        F = table_loss("flat", [-10.0, 10.0], [1.0, 1.0])
        req = OffsetRequest(0.0, 1.0, z_limit=1.0, precision_Z=16)
        v = find_offset(F, req)
        assert v == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_returned_offset_is_feasible_at_decision_grid(self):
        """Every accepted offset satisfies the budget at the grid that
        decided it — that is the oracle's contract; finer-grid soundness on
        real run budgets is exercised by the acceptance suite."""
        F = make_builtin("spring", Q=100.0)
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(50):
            e_t = rng.uniform(-1.0, 1.0)
            e_prev = e_t + rng.uniform(0.05, 0.5) * rng.choice([-1.0, 1.0])
            req = OffsetRequest(e_t, e_prev, z_limit=2e-3)
            v = find_offset(F, req)
            if v is None:
                continue
            found += 1
            assert q_star(F, e_t, e_prev, v, grid_points=512) <= req.z_limit
        assert found >= 40  # the oracle should almost always succeed here

    def test_retries_refine_until_feasible(self):
        # At Z=2 the single interior candidate (the midpoint, v=0.25) blows
        # the tiny budget on a steep spring loss; retries shrink the
        # candidate spacing by 4x per round until one fits the budget at the
        # decision grid.
        F = make_builtin("spring", Q=40.0)
        req = OffsetRequest(0.0, 0.5, z_limit=1e-4, precision_Z=2, max_retries=6)
        v = find_offset(F, req)
        assert v is not None
        assert q_star(F, 0.0, 0.5, v, grid_points=512) <= req.z_limit
        # The accepted offset is not the Z=2 candidate, so at least one
        # retry actually happened — and rightly so, since the midpoint
        # candidate is infeasible.
        assert v != 0.25
        assert q_star(F, 0.0, 0.5, 0.25, grid_points=512) > req.z_limit

    def test_none_when_budget_unreachable(self):
        # The square loss's chord distortion over its own span is v^2/4, so
        # even the shortest candidate at the final retry resolution exceeds
        # a budget below float-visible scales and the scan gives up.
        F = make_builtin("square")
        req = OffsetRequest(0.0, 1.0, z_limit=1e-12, max_retries=2)
        assert find_offset(F, req) is None


def find_offset_convex_dichotomic(F, e_t: float, e_prev: float, z_limit: float) -> float | None:
    """Convex shortcut: halve the full gap until it becomes feasible.

    For convex losses the distortion of the chord over its own span shrinks
    with the offset, so starting from the whole gap and halving must succeed
    unless the budget sits below float resolution; gives up after 60 halvings.
    """
    if not F.is_convex:
        raise ValueError("dichotomic offset search requires a convex loss")
    if e_t == e_prev:
        raise ValueError("equal edges: caller must fall back to the previous offset")
    v = float(e_prev) - float(e_t)
    for _ in range(60):
        if v == 0.0:
            break
        if offset_feasible(F, e_t, e_prev, v, z_limit):
            return v
        v /= 2.0
    return None


class TestConvexDichotomic:
    """The library's feasibility test drives a halving search to success on
    convex losses, where distortion shrinks with the offset."""

    def test_full_gap_accepted_when_budget_large(self):
        F = make_builtin("logistic")
        v = find_offset_convex_dichotomic(F, 0.0, 2.0, z_limit=1.0)
        assert v == 2.0

    def test_halves_until_within_budget(self):
        F = make_builtin("square")
        # q_star over the chord's own span is v^2/4; budget 1e-4 needs
        # |v| <= 0.02, reached from 2.0 after several halvings as 2/2^k.
        v = find_offset_convex_dichotomic(F, 0.0, 2.0, z_limit=1e-4)
        assert v is not None
        assert abs(v) <= 0.02 + 1e-12
        assert v == 2.0 / 2 ** round(np.log2(2.0 / v))

    def test_rejects_nonconvex_loss(self):
        with pytest.raises(ValueError, match="convex"):
            find_offset_convex_dichotomic(make_builtin("spring", Q=2.0), 0.0, 1.0, 0.1)

    def test_rejects_equal_edges(self):
        with pytest.raises(ValueError, match="equal edges"):
            find_offset_convex_dichotomic(make_builtin("logistic"), 0.3, 0.3, 0.1)


class TestSanitizeOffset:
    def test_nonzero_passes_through(self):
        assert sanitize_offset(0.25, scale=1.0, seed=0) == 0.25
        assert sanitize_offset(-1e-12, scale=1.0, seed=0) == -1e-12

    def test_zero_replaced_within_scale(self):
        v = sanitize_offset(0.0, scale=0.1, seed=42)
        assert v != 0.0
        assert 0.05 <= abs(v) <= 0.1

    def test_seeded_determinism(self):
        a = sanitize_offset(0.0, scale=1.0, seed=7)
        b = sanitize_offset(0.0, scale=1.0, seed=7)
        c = sanitize_offset(0.0, scale=1.0, seed=8)
        assert a == b
        assert a != c

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            sanitize_offset(0.0, scale=0.0, seed=0)


# --- Reference oracle: the scan as first written, one np.linspace grid and one
# ObiQuery per call.  The library's oracle must ask the loss the same queries
# and return the same offsets.


def _ref_obi(F, query: ObiQuery) -> float:
    if query.grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {query.grid_points}")
    a = float(query.a)
    b = float(query.b)
    c = float(query.c)
    if a == b:
        return 0.0
    lo, hi = (a, c) if a <= c else (c, a)
    xs = np.linspace(lo, hi, query.grid_points + 1)
    fa = float(F(a))
    slope = (float(F(b)) - fa) / (b - a)
    line = fa + slope * (xs - a)
    return float(np.max(line - F(xs)))


def _ref_q_star(F, z: float, zp: float, v: float, grid_points: int = DEFAULT_GRID) -> float:
    if F.is_convex:
        return _ref_obi(F, ObiQuery(z, z + v, z + v, grid_points))
    return _ref_obi(F, ObiQuery(z, z + v, zp, grid_points))


def _ref_offset_feasible(
    F, e_t: float, e_prev: float, v: float, z_limit: float, grid_points: int = DEFAULT_GRID
) -> bool:
    if not z_limit > 0.0:
        raise ValueError(f"z_limit must be positive, got {z_limit}")
    q = _ref_q_star(F, e_t, e_prev, v, grid_points)
    if abs(q - z_limit) < REFINE_MARGIN:
        q = _ref_q_star(F, e_t, e_prev, v, grid_points * REFINE_FACTOR)
    return q <= z_limit


def _ref_find_offset(F, req: OffsetRequest, grid_points: int = DEFAULT_GRID) -> float | None:
    e_t = float(req.e_t)
    e_prev = float(req.e_prev)
    f_et = float(F(e_t))
    Z = int(req.precision_Z)
    for _ in range(req.max_retries + 1):
        delta = (e_prev - e_t) / Z
        z_cand = e_t + delta * np.arange(1, Z)
        inside = (z_cand - e_t) * (z_cand - e_prev) < 0.0
        z_cand = z_cand[inside]
        if z_cand.size:
            slopes = (np.asarray(F(z_cand), dtype=np.float64) - f_et) / (z_cand - e_t)
            pick = int(np.argmin(slopes)) if delta > 0 else int(np.argmax(slopes))
            v = float(z_cand[pick] - e_t)
            if v != 0.0 and _ref_offset_feasible(F, e_t, e_prev, v, req.z_limit, grid_points):
                return v
        Z *= 4
    return None


class _Recorder:
    """Wrap a loss so that it logs every query: kind, dtype, shape and exact bytes."""

    def __init__(self, F):
        self.log = []
        self._evaluate = F.evaluate
        self.loss = dataclasses.replace(F, evaluate=self)

    def __call__(self, z):
        arr = np.array(z, dtype=np.float64)
        kind = "array" if isinstance(z, np.ndarray) else type(z).__name__
        self.log.append((kind, np.asarray(z).dtype.str, arr.shape, arr.tobytes()))
        return self._evaluate(z)


_ORACLE_LOSSES = (
    make_builtin("logistic"),
    make_builtin("square"),
    make_builtin("exponential"),
    make_builtin("hinge"),
    make_builtin("clipped_logistic", q=-2.0),
    make_builtin("spring", Q=40.0),
    make_builtin("spring", Q=500.0),
    table_loss("bumpy", [-3.0, -1.0, -0.2, 0.4, 1.0, 2.5], [3.0, 1.2, 1.5, 0.6, 0.9, 0.0]),
)
N_ORACLE_REQUESTS = 400


def _oracle_requests():
    """Seeded requests: plain scans, coarse retried scans, near-budget refines
    and edges a few ulps apart, on every loss, in both gap directions."""
    rng = np.random.default_rng(2718)
    for i in range(N_ORACLE_REQUESTS):
        F = _ORACLE_LOSSES[i % len(_ORACLE_LOSSES)]
        kind = ("plain", "retry", "refine", "ulps")[(i // len(_ORACLE_LOSSES)) % 4]
        e_t = float(rng.uniform(-2.0, 2.0))
        sign = float(rng.choice([-1.0, 1.0]))
        Z = int(rng.choice([4, 8, 64]))
        retries = int(rng.choice([2, DEFAULT_MAX_RETRIES]))
        if kind == "ulps":
            k = int(rng.choice([1, 2, 3, 5, 17, 40]))
            e_prev = e_t
            for _ in range(k):
                e_prev = float(np.nextafter(e_prev, sign * np.inf))
            z_limit = float(10.0 ** rng.uniform(-12.0, -2.0))
        else:
            e_prev = e_t + sign * float(rng.uniform(0.01, 1.5))
            z_limit = float(10.0 ** rng.uniform(-6.0, -1.0))
        if kind == "retry":
            Z = 4
            z_limit = float(10.0 ** rng.uniform(-8.0, -4.0))
        elif kind == "refine":
            # Put the budget within REFINE_MARGIN of the first pass's
            # distortion, so the decision is re-taken on the finer grid.
            v0 = _ref_find_offset(F, OffsetRequest(e_t, e_prev, 1e300, Z, retries))
            q0 = _ref_q_star(F, e_t, e_prev, v0)
            z_limit = max(q0 + float(rng.uniform(-0.9, 0.9)) * REFINE_MARGIN, 1e-300)
        yield kind, F, OffsetRequest(e_t, e_prev, z_limit, Z, retries)


class TestOracleMatchesReference:
    """Same offsets, same loss queries in the same order, as the reference oracle."""

    def test_find_offset_queries_and_results(self):
        seen = dict.fromkeys(
            ("none", "retried", "refined", "part_absorbed", "all_absorbed", "left", "right"), 0
        )
        convexities = set()
        for kind, F, req in _oracle_requests():
            new, ref = _Recorder(F), _Recorder(F)
            got = find_offset(new.loss, req)
            want = _ref_find_offset(ref.loss, req)
            assert (got is None and want is None) or got == want, (kind, req)
            assert new.log == ref.log, (kind, req)
            sizes = [shape[0] for _, _, shape, _ in ref.log if shape]
            seen["none"] += want is None
            seen["retried"] += sizes.count(DEFAULT_GRID + 1) >= 2
            seen["refined"] += DEFAULT_GRID * REFINE_FACTOR + 1 in sizes
            seen["part_absorbed"] += bool(sizes) and sizes[0] < req.precision_Z - 1
            seen["all_absorbed"] += not sizes
            seen["left" if req.e_prev < req.e_t else "right"] += 1
            convexities.add(F.is_convex)
        assert convexities == {True, False}
        assert min(seen.values()) >= 15, seen

    def test_q_star_and_obi_queries_and_results(self):
        rng = np.random.default_rng(99)
        for i in range(200):
            F = _ORACLE_LOSSES[i % len(_ORACLE_LOSSES)]
            z = float(rng.uniform(-2.0, 2.0))
            zp = z + float(rng.uniform(-1.0, 1.0))
            v = (zp - z) * float(rng.uniform(0.0, 1.0)) if i % 7 else 0.0
            grid_points = int(rng.choice([2, 3, 64, DEFAULT_GRID]))
            new, ref = _Recorder(F), _Recorder(F)
            assert q_star(new.loss, z, zp, v, grid_points) == _ref_q_star(
                ref.loss, z, zp, v, grid_points
            )
            query = ObiQuery(z, z + v, zp, grid_points)
            assert obi(new.loss, query) == _ref_obi(ref.loss, query)
            z_limit = float(10.0 ** rng.uniform(-6.0, 0.0))
            assert offset_feasible(new.loss, z, zp, v, z_limit) == _ref_offset_feasible(
                ref.loss, z, zp, v, z_limit
            )
            assert new.log == ref.log

    def test_grid_equals_linspace_bit_for_bit(self):
        rng = np.random.default_rng(5)
        tiny = 5e-324  # smallest subnormal
        cases = [
            (0.0, 0.0, 512),
            (1.0, 1.0, 512),
            (0.0, tiny, 512),
            (-tiny, tiny, 512),
            (0.0, 3 * tiny, 2048),
            (1e-310, 1e-310 + 7 * tiny, 512),
            (-1e300, 1e300, 512),
            (-0.0, 0.0, 2),
        ]
        for _ in range(3000):
            lo = float(rng.uniform(-5.0, 5.0)) * 10.0 ** rng.integers(-320, 300)
            hi = lo + abs(float(rng.normal())) * 10.0 ** rng.integers(-330, 300)
            cases.append((lo, hi, int(rng.choice([2, 3, 7, 64, 512, 2048]))))
        n_zero_step = 0
        for lo, hi, grid_points in cases:
            want = np.linspace(lo, hi, grid_points + 1)
            got = _grid(lo, hi, grid_points)
            assert got.tobytes() == want.tobytes(), (lo, hi, grid_points)
            n_zero_step += (hi - lo) / grid_points == 0.0
        assert n_zero_step >= 5
