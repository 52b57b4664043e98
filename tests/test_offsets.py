"""Tests for the per-example offset oracle."""

from __future__ import annotations

import dataclasses
import inspect
from typing import NamedTuple

import numpy as np
import pytest

from secantboost import (
    find_offset,
    make_builtin,
    obi,
    offset_feasible,
    q_star,
    sanitize_offset,
    table_loss,
)
from secantboost.bregman import DEFAULT_GRID, REFINE_FACTOR, REFINE_MARGIN, _grid
from secantboost.offsets import DEFAULT_PRECISION_Z, MAX_RETRIES


class TestFindOffset:
    def test_defaults(self):
        params = inspect.signature(find_offset).parameters
        assert params["precision_Z"].default == DEFAULT_PRECISION_Z == 64
        assert "max_retries" not in params
        assert MAX_RETRIES == 5

    def test_validation(self):
        F = make_builtin("logistic")
        with pytest.raises(ValueError, match="z_limit"):
            find_offset(F, 0.0, 1.0, z_limit=0.0)
        with pytest.raises(ValueError, match="precision_Z"):
            find_offset(F, 0.0, 1.0, z_limit=0.1, precision_Z=1)
        with pytest.raises(ValueError, match="equal edges"):
            find_offset(F, 0.5, 0.5, z_limit=0.1)

    def test_sign_matches_gap_direction(self):
        F = make_builtin("logistic")
        right = find_offset(F, 0.0, 1.0, z_limit=0.5)
        left = find_offset(F, 1.0, 0.0, z_limit=0.5)
        assert right is not None and right > 0
        assert left is not None and left < 0

    def test_offset_stays_inside_gap(self):
        F = make_builtin("spring", Q=10.0)
        e_t, e_prev = -0.3, 0.9
        v = find_offset(F, e_t, e_prev, z_limit=0.05)
        assert v is not None
        assert 0.0 < v < e_prev - e_t

    def test_extremal_slope_candidate_wins(self):
        # On the parabola (1-z)^2 scanned rightward from e_t=0, secant slope
        # through 0 and x is x - 2: strictly increasing in x, so the very
        # first interior candidate (k=1) has the minimal slope.
        F = make_builtin("square")
        v = find_offset(F, 0.0, 1.0, z_limit=10.0, precision_Z=8)
        assert v == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_leftward_scan_keeps_maximal_slope(self):
        # Scanning leftward on the same parabola, slope through 0 and x is
        # still x - 2, now maximized by the candidate nearest e_t: k=1 again.
        F = make_builtin("square")
        v = find_offset(F, 1.0, 0.0, z_limit=10.0, precision_Z=8)
        assert v == pytest.approx(-1.0 / 8.0, rel=1e-12)

    def test_first_extremum_wins_ties(self):
        # A flat table loss makes every candidate slope identical; the scan
        # must keep the first (shortest) offset rather than a later tie.
        from secantboost import table_loss

        F = table_loss("flat", [-10.0, 10.0], [1.0, 1.0])
        v = find_offset(F, 0.0, 1.0, z_limit=1.0, precision_Z=16)
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
            z_limit = 2e-3
            v = find_offset(F, e_t, e_prev, z_limit)
            if v is None:
                continue
            found += 1
            assert q_star(F, e_t, e_prev, v, grid_points=512) <= z_limit
        assert found >= 40  # the oracle should almost always succeed here

    def test_retries_refine_until_feasible(self):
        # At Z=2 the single interior candidate (the midpoint, v=0.25) blows
        # the tiny budget on a steep spring loss; retries shrink the
        # candidate spacing by 4x per round until one fits the budget at the
        # decision grid.
        F = make_builtin("spring", Q=40.0)
        z_limit = 1e-4
        v = find_offset(F, 0.0, 0.5, z_limit, precision_Z=2)
        assert v is not None
        assert q_star(F, 0.0, 0.5, v, grid_points=512) <= z_limit
        # The accepted offset is not the Z=2 candidate, so at least one
        # retry actually happened — and rightly so, since the midpoint
        # candidate is infeasible.
        assert v != 0.25
        assert q_star(F, 0.0, 0.5, 0.25, grid_points=512) > z_limit

    def test_none_when_budget_unreachable(self):
        # The square loss's chord distortion over its own span is v^2/4, so
        # even the shortest candidate at the final retry resolution exceeds
        # a budget below float-visible scales and the scan gives up.
        F = make_builtin("square")
        assert find_offset(F, 0.0, 1.0, z_limit=1e-12) is None


def _first_candidate(e_t, e_prev, Z: int):
    """The scan's k=1 offset: (e_t + (e_prev - e_t)/Z) - e_t."""
    return (e_t + (e_prev - e_t) / Z) - e_t


def _find_requests(seed: int, n: int = 300):
    """Seeded edge pairs in both directions: spans log-uniform in [1e-12, 2],
    and every tenth pair a few ulps apart."""
    rng = np.random.default_rng(seed)
    e_t = rng.uniform(-3.0, 3.0, n)
    e_prev = e_t + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 0.3, n)
    for i in range(0, n, 10):
        direction = np.copysign(np.inf, e_prev[i] - e_t[i])
        e_prev[i] = e_t[i]
        for _ in range(int(rng.choice([2, 3, 17, 40, 70]))):
            e_prev[i] = np.nextafter(e_prev[i], direction)
    return e_t, e_prev


class TestArrayFindOffset:
    """Arrays of requests (convex losses declaring beta) take the scan's first
    candidate where it is inside the gap and feasible, else the float scan."""

    @pytest.mark.parametrize("name", ["logistic", "square"])
    @pytest.mark.parametrize("z_limit,Z", [(1e-6, 64), (1e-8, 64), (1e-5, 4), (1e-9, 4)])
    def test_rows_equal_the_float_scan_where_it_picks_k1(self, name, z_limit, Z):
        F = make_builtin(name)
        e_t, e_prev = _find_requests(seed=Z + len(name))
        want = [find_offset(F, a, b, z_limit, Z) for a, b in zip(e_t.tolist(), e_prev.tolist())]
        keep = np.array([w is not None for w in want])
        e_t, e_prev = e_t[keep], e_prev[keep]
        want = [w for w in want if w is not None]
        got = find_offset(F, e_t, e_prev, z_limit, Z)
        v1 = _first_candidate(e_t, e_prev, Z)
        seen = {"k1": 0, "scanned": 0, "rounding": 0, "ulps": 0}
        for i, (g, w) in enumerate(zip(got.tolist(), want)):
            if w == v1[i]:
                seen["k1"] += 1
            elif g != v1[i]:
                seen["scanned"] += 1
            else:  # the float scan's pick is not k=1, only at spans rounding decides
                seen["rounding"] += 1
                assert abs(e_prev[i] - e_t[i]) < 1e-5, (e_t[i], e_prev[i])
                continue
            assert g == w, (e_t[i], e_prev[i])
            seen["ulps"] += bool(abs(e_prev[i] - e_t[i]) < 100 * np.spacing(abs(e_t[i])))
        assert seen["k1"] >= 100 and seen["scanned"] >= 10 and seen["ulps"] >= 5, seen

    def test_none_when_one_row_is_unreachable(self):
        F = make_builtin("square")
        e_t = np.array([0.0, 0.3, -1.0])
        e_prev = e_t + np.array([1e-5, -2e-5, 3e-6])
        assert find_offset(F, e_t, e_prev, z_limit=1e-12) is not None
        assert find_offset(F, np.append(e_t, 0.0), np.append(e_prev, 1.0), z_limit=1e-12) is None

    def test_rejects_losses_without_certified_chords_and_equal_edges(self):
        e_t, e_prev = np.array([0.0, 0.5]), np.array([1.0, 0.7])
        for F in (make_builtin("spring", Q=40.0), make_builtin("exponential")):
            with pytest.raises(ValueError, match="convex loss that declares beta"):
                find_offset(F, e_t, e_prev, z_limit=0.1)
        with pytest.raises(ValueError, match="equal edges"):
            find_offset(make_builtin("logistic"), e_t, np.array([1.0, 0.5]), z_limit=0.1)

    def test_k1_where_the_float_scan_picks_by_rounding(self):
        """At a span of 1e-9 the candidates' chord slopes differ from the
        first one's only by rounding, so the float scan's pick is noise.  The
        array call returns k=1: the exact-arithmetic pick, feasible, and the
        shortest candidate."""
        F = make_builtin("logistic")
        Z, z_limit = DEFAULT_PRECISION_Z, 1e-3
        rng = np.random.default_rng(1)
        for _ in range(200):
            e_t = float(rng.uniform(-2.0, 2.0))
            e_prev = e_t + float(rng.choice([-1e-9, 1e-9]))
            scanned = find_offset(F, e_t, e_prev, z_limit, Z)
            v1 = _first_candidate(e_t, e_prev, Z)
            if scanned != v1:
                break
        else:
            pytest.fail("no request where the float scan's pick is not k=1")
        got = find_offset(F, np.array([e_t]), np.array([e_prev]), z_limit, Z)
        assert got[0] == v1
        assert offset_feasible(F, e_t, e_prev, v1, z_limit)
        z = e_t + (e_prev - e_t) / Z * np.arange(1, Z)
        gaps = np.abs(z - e_t)[(z - e_t) * (z - e_prev) < 0.0]
        assert abs(v1) == gaps.min() < abs(scanned)


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


class ObiQuery(NamedTuple):
    """The reference's query record, in the library's obi argument order."""

    a: float
    b: float
    c: float
    grid_points: int = DEFAULT_GRID


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


def _ref_find_offset(
    F, e_t, e_prev, z_limit, precision_Z, max_retries, grid_points: int = DEFAULT_GRID
) -> float | None:
    e_t = float(e_t)
    e_prev = float(e_prev)
    f_et = float(F(e_t))
    Z = int(precision_Z)
    for _ in range(max_retries + 1):
        delta = (e_prev - e_t) / Z
        z_cand = e_t + delta * np.arange(1, Z)
        inside = (z_cand - e_t) * (z_cand - e_prev) < 0.0
        z_cand = z_cand[inside]
        if z_cand.size:
            slopes = (np.asarray(F(z_cand), dtype=np.float64) - f_et) / (z_cand - e_t)
            pick = int(np.argmin(slopes)) if delta > 0 else int(np.argmax(slopes))
            v = float(z_cand[pick] - e_t)
            if v != 0.0 and _ref_offset_feasible(F, e_t, e_prev, v, z_limit, grid_points):
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
            v0 = _ref_find_offset(F, e_t, e_prev, 1e300, Z, MAX_RETRIES)
            q0 = _ref_q_star(F, e_t, e_prev, v0)
            z_limit = max(q0 + float(rng.uniform(-0.9, 0.9)) * REFINE_MARGIN, 1e-300)
        yield kind, F, (e_t, e_prev, z_limit, Z)


def _certified(F, new_log, ref_log) -> bool:
    """Compare the library's loss queries with the reference's.

    False when they are identical.  True when the library's are the
    reference's less the final grid array: the accepting decision was
    certified from F(a) and F(b) alone, which only a convex loss declaring
    beta allows.  Any other difference fails.
    """
    if new_log == ref_log:
        return False
    assert F.is_convex and F.smoothness_beta is not None, F.name
    assert new_log == ref_log[:-1], F.name
    assert ref_log[-1][:3] == ("array", "<f8", (DEFAULT_GRID + 1,)), F.name
    assert [shape for _, _, shape, _ in ref_log[-3:-1]] == [(), ()], F.name
    return True


class TestOracleMatchesReference:
    """Same offsets as the reference oracle, and the same loss queries in the
    same order, except the grid of a decision the curvature certificate took."""

    def test_find_offset_queries_and_results(self):
        seen = dict.fromkeys(
            ("none", "retried", "refined", "part_absorbed", "all_absorbed", "left", "right"), 0
        )
        decided = {"certified": 0, "grid": 0}
        convexities = set()
        for kind, F, req in _oracle_requests():
            e_t, e_prev, z_limit, Z = req
            new, ref = _Recorder(F), _Recorder(F)
            got = find_offset(new.loss, *req)
            want = _ref_find_offset(ref.loss, *req, MAX_RETRIES)
            assert (got is None and want is None) or got == want, (kind, req)
            certified = _certified(F, new.log, ref.log)
            assert not certified or want is not None, (kind, req)
            if F.smoothness_beta is not None:
                decided["certified"] += certified
                decided["grid"] += sum(shape == (DEFAULT_GRID + 1,) for _, _, shape, _ in new.log)
            sizes = [shape[0] for _, _, shape, _ in ref.log if shape]
            seen["none"] += want is None
            seen["retried"] += sizes.count(DEFAULT_GRID + 1) >= 2
            seen["refined"] += DEFAULT_GRID * REFINE_FACTOR + 1 in sizes
            seen["part_absorbed"] += bool(sizes) and sizes[0] < Z - 1
            seen["all_absorbed"] += not sizes
            seen["left" if e_prev < e_t else "right"] += 1
            convexities.add(F.is_convex)
        assert convexities == {True, False}
        assert min(seen.values()) >= 15, seen
        assert min(decided.values()) >= 15, decided

    def test_q_star_and_obi_queries_and_results(self):
        rng = np.random.default_rng(99)
        decided = {"certified": 0, "grid": 0}
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
            assert obi(new.loss, *query) == _ref_obi(ref.loss, query)
            assert new.log == ref.log
            z_limit = float(10.0 ** rng.uniform(-6.0, 0.0))
            new, ref = _Recorder(F), _Recorder(F)
            assert offset_feasible(new.loss, z, zp, v, z_limit) == _ref_offset_feasible(
                ref.loss, z, zp, v, z_limit
            )
            if _certified(F, new.log, ref.log):
                decided["certified"] += 1
            elif F.smoothness_beta is not None and v != 0.0:
                decided["grid"] += 1
        assert min(decided.values()) >= 5, decided

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
