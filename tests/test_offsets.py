"""Tests for the per-example offset oracle."""

from __future__ import annotations

import dataclasses
import inspect
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from secantboost import (
    ConfigError,
    LossSpec,
    find_offset,
    make_builtin,
    obi,
    offset_feasible,
    q_star,
    sanitize_offset,
    table_loss,
)
from secantboost.bregman import (
    _CERT_GRID,
    DEFAULT_GRID,
    REFINE_FACTOR,
    REFINE_MARGIN,
    _grid,
    certifies,
)
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
    """Arrays of requests on a convex loss declaring beta take the scan's
    first candidate where it is inside the gap and feasible, else the array
    passes of the float scan."""

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

    @pytest.mark.parametrize("z_limit", [1e-5, 1e-8])
    def test_no_offset_is_decided_twice(self, z_limit, monkeypatch):
        """A row whose k=1 offset is rejected, and whose scan at Z picks k=1
        again, goes on to 4Z without deciding that offset a second time."""
        import secantboost.offsets as offsets

        feasible = offsets.offset_feasible
        decided = []

        def recording(F, e_t, e_prev, v, z_limit):
            decided.extend(zip(e_t.tolist(), e_prev.tolist(), v.tolist()))
            return feasible(F, e_t, e_prev, v, z_limit)

        monkeypatch.setattr(offsets, "offset_feasible", recording)
        F, Z = make_builtin("logistic"), 64
        e_t, e_prev = _find_requests(seed=31)
        v1 = _first_candidate(e_t, e_prev, Z)
        repeats = sum(
            _first_pass(F, a, b, Z)[2] == v and not feasible(F, a, b, v, z_limit)
            for a, b, v in zip(e_t.tolist(), e_prev.tolist(), v1.tolist())
        )
        assert repeats >= 5, repeats
        find_offset(F, e_t, e_prev, z_limit, Z)
        assert decided and len(decided) == len(set(decided))

    def test_none_when_one_row_is_unreachable(self):
        F = make_builtin("square")
        e_t = np.array([0.0, 0.3, -1.0])
        e_prev = e_t + np.array([1e-5, -2e-5, 3e-6])
        assert find_offset(F, e_t, e_prev, z_limit=1e-12) is not None
        assert find_offset(F, np.append(e_t, 0.0), np.append(e_prev, 1.0), z_limit=1e-12) is None

    def test_rejects_equal_edges(self):
        e_t, e_prev = np.array([0.0, 0.5]), np.array([1.0, 0.5])
        for name, params in (("logistic", {}), ("spring", {"Q": 40.0}), ("exponential", {})):
            with pytest.raises(ValueError, match="equal edges"):
                find_offset(make_builtin(name, **params), e_t, e_prev, z_limit=0.1)

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


def _bounded_scan_requests(seed: int, n: int = 40):
    """Seeded edge pairs for losses declaring curvature_bound, in both
    directions: across the clip point q = -2 of clipped_logistic, inside its
    flat clip (every slope ties at 0), 1e-9 apart (slopes tie up to
    rounding), a few ulps apart (candidates absorbed), and leftward over the
    clip, where the first pass overshoots small budgets and retries."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        sign = float(rng.choice([-1.0, 1.0]))
        kind = i % 5
        if kind == 0:
            e_t = -2.0 - sign * float(rng.uniform(0.01, 1.5))
            e_prev = -2.0 + sign * float(rng.uniform(0.01, 1.5))
        elif kind == 1:
            e_t, e_prev = (float(x) for x in rng.uniform(-8.0, -2.5, 2))
        elif kind == 2:
            e_t = float(rng.uniform(-4.0, 4.0))
            e_prev = e_t + sign * 1e-9
        elif kind == 3:
            e_t = e_prev = float(rng.uniform(-4.0, 4.0))
            for _ in range((1, 2, 3, 5, 17, 40)[i // 5 % 6]):
                e_prev = float(np.nextafter(e_prev, sign * np.inf))
        else:
            e_t = float(rng.uniform(-1.9, -1.2))
            e_prev = float(rng.uniform(-3.0, -2.3))
        rows.append((e_t, e_prev))
    return tuple(np.array(col) for col in zip(*rows))


def _first_pass(F, e_t: float, e_prev: float, Z: int):
    """The float scan's first pass, written out: (inside count, tied, pick)."""
    z = e_t + (e_prev - e_t) / Z * np.arange(1, Z)
    z = z[(z - e_t) * (z - e_prev) < 0.0]
    if not z.size:
        return 0, False, None
    slopes = (F(z) - F(e_t)) / (z - e_t)
    best = slopes.min() if e_prev > e_t else slopes.max()
    return z.size, np.count_nonzero(slopes == best) > 1, float(z[slopes == best][0] - e_t)


class TestArrayScanMatchesFloatScan:
    """For a loss declaring curvature_bound, each row of an array call equals
    the float call bit for bit: the same offset, or None for the batch when
    some row has none."""

    def test_rows_equal_the_float_scan(self, bounded_losses):
        e_t, e_prev = _bounded_scan_requests(seed=77)
        edges = list(zip(e_t.tolist(), e_prev.tolist()))
        seen = dict.fromkeys(
            ("part_absorbed", "all_absorbed", "tied", "retried", "infeasible", "near_cert"), 0
        )
        for F in bounded_losses:
            first = {Z: [_first_pass(F, a, b, Z) for a, b in edges] for Z in (4, 64)}
            for Z, passes in first.items():
                for size, tied, _ in passes:
                    seen["part_absorbed"] += 0 < size < Z - 1
                    seen["all_absorbed"] += size == 0
                    seen["tied"] += tied
            budgets = [(1e-2, 4), (1e-4, 64), (1e-8, 64)]
            # Budgets an ulp either side of cert + REFINE_MARGIN for a row's
            # first-pass pick, and within REFINE_MARGIN of its grid maximum.
            for i in (0, 4):
                v = first[64][i][2]
                cert = q_star(F, e_t[i], e_prev[i], v, certify_below=math.inf)
                grid = q_star(F, e_t[i], e_prev[i], v)
                for z_limit in (cert + REFINE_MARGIN, grid + 0.5 * REFINE_MARGIN):
                    budgets += [(z_limit, 64), (float(np.nextafter(z_limit, 0.0)), 64)]
                    seen["near_cert"] += 1
            for z_limit, Z in budgets:
                want = [find_offset(F, a, b, z_limit, Z) for a, b in edges]
                got = find_offset(F, e_t, e_prev, z_limit, Z)
                keep = np.array([w is not None for w in want])
                if not keep.all():
                    assert got is None
                    got = find_offset(F, e_t[keep], e_prev[keep], z_limit, Z)
                assert got.tobytes() == np.array([w for w in want if w is not None]).tobytes()
                seen["infeasible"] += int(np.count_nonzero(~keep))
                seen["retried"] += sum(
                    w is not None and w != pick for w, (_, _, pick) in zip(want, first[Z])
                )
        assert min(seen.values()) >= 8, seen

    def test_row_blocks_change_nothing(self, bounded_losses, monkeypatch):
        import secantboost.bregman as bregman

        e_t, e_prev = _bounded_scan_requests(seed=80)
        wide = np.arange(e_t.size) % 5 != 3  # rows an ulp wide have no candidate
        e_t, e_prev = e_t[wide], e_prev[wide]
        v = (e_prev - e_t) / 3.0
        want = [(find_offset(F, e_t, e_prev, 1e-2), q_star(F, e_t, e_prev, v, certify_below=1e-2))
                for F in bounded_losses]
        # Seven rows per block, then a budget below one row's width.
        for points in (7 * (_CERT_GRID + 1), 5):
            monkeypatch.setattr(bregman, "_BLOCK_POINTS", points)
            for F, (offset, q) in zip(bounded_losses, want):
                assert find_offset(F, e_t, e_prev, 1e-2).tobytes() == offset.tobytes()
                assert q_star(F, e_t, e_prev, v, certify_below=1e-2).tobytes() == q.tobytes()

    def test_feasibility_rows_equal_the_float_calls(self, bounded_losses):
        e_t, e_prev = _bounded_scan_requests(seed=78)
        rng = np.random.default_rng(79)
        v = (e_prev - e_t) * rng.uniform(0.0, 1.0, e_t.size)
        v[::7] = 0.0
        rows = list(zip(e_t.tolist(), e_prev.tolist(), v.tolist()))
        for F in bounded_losses:
            for z_limit in (1e-8, 1e-4, 1e-2):
                want = [offset_feasible(F, *row, z_limit) for row in rows]
                assert offset_feasible(F, e_t, e_prev, v, z_limit).tolist() == want


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


# --- Reference oracle: the scan as first written, one loss query per scan pass,
# one np.linspace grid and one ObiQuery per call.  The library's oracle must
# return the same offsets and ask the loss the same queries, less the ones
# _certified lists.


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
    F, e_t, e_prev, z_limit, precision_Z, max_retries, grid_points: int = DEFAULT_GRID,
    passes: list | None = None,
) -> float | None:
    """The scan reads F at e_t and at its Z - 1 candidates in one query per
    pass.  passes, when given, gets one (inside candidates, picked candidate
    or None) pair per pass."""
    e_t = float(e_t)
    e_prev = float(e_prev)
    Z = int(precision_Z)
    for _ in range(max_retries + 1):
        delta = (e_prev - e_t) / Z
        z_all = e_t + delta * np.arange(Z)
        f_all = np.asarray(F(z_all), dtype=np.float64)
        f_et = float(f_all[0])
        inside = (z_all[1:] - e_t) * (z_all[1:] - e_prev) < 0.0
        z_cand, f_cand = z_all[1:][inside], f_all[1:][inside]
        picked = None
        if z_cand.size:
            slopes = (f_cand - f_et) / (z_cand - e_t)
            picked = float(z_cand[int(np.argmin(slopes)) if delta > 0 else int(np.argmax(slopes))])
        if passes is not None:
            passes.append((z_cand.size, picked))
        # An inside candidate differs from e_t, so v != 0.
        if picked is not None and _ref_offset_feasible(
            F, e_t, e_prev, picked - e_t, z_limit, grid_points
        ):
            return picked - e_t
        Z *= 4
    return None


class _Recorder:
    """Wrap a loss so that it logs every query: kind, dtype, shape and exact bytes.

    A declared minorant's queries go to the same log, their kind prefixed
    with "minorant ".
    """

    def __init__(self, F, log=None, prefix=""):
        self.log = [] if log is None else log
        self._evaluate = F.evaluate
        self._prefix = prefix
        changes = {"evaluate": self}
        if F.minorant is not None:
            changes["minorant"] = _Recorder(F.minorant, self.log, "minorant ").loss
        self.loss = dataclasses.replace(F, **changes)

    def __call__(self, z):
        arr = np.array(z, dtype=np.float64)
        kind = "array" if isinstance(z, np.ndarray) else type(z).__name__
        self.log.append((self._prefix + kind, np.asarray(z).dtype.str, arr.shape, arr.tobytes()))
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


def _certified(F, new_log, ref_log, picks=None) -> bool:
    """Compare the library's loss queries with the reference's.

    Each decision of the reference reads F(a), F(b), then its grid; a first
    decision's grid has DEFAULT_GRID + 1 points, a refine's more.  The
    library asks the same queries, with exactly these differences:
    - Called from find_offset (picks: the reference's picked candidate of
      each first decision, in order), no decision reads F(a), which the
      pass's scan read at its point 0, and none reads F(b) where b is the
      picked candidate, which the scan also read.
    - Right after where F(b) is read, a first decision of a loss declaring
      curvature_bound reads a 64-subinterval grid of its segment, unless the
      segment is the chord's own; one of a loss that certifies only through
      its minorant reads that grid from the minorant, on every segment.  A
      convex loss declaring beta reads no grid for its certificate.
    - The accepting decision, the last, may be certified and skip its grid;
      then True is returned, else False.  Refines never certify.
    Any other difference fails.
    """
    through_minorant = F.minorant is not None and not certifies(F)
    picks = iter(picks) if picks is not None else None
    expected = []
    i = 0
    while i < len(ref_log):
        if ref_log[i][2] != ():  # a scan pass
            expected.append(ref_log[i])
            i += 1
            continue
        fa, fb, grid = ref_log[i:i + 3]
        i += 3
        a, b = (float(np.frombuffer(e[3])[0]) for e in (fa, fb))
        first = grid[2] == (DEFAULT_GRID + 1,)
        if picks is None:
            expected.append(fa)
        elif first:
            pick = next(picks)
        if picks is None or b != pick:
            expected.append(fb)
        if first:
            xs = np.frombuffer(grid[3])
            c = xs[-1] if a == xs[0] else xs[0]
            coarse = _grid(float(xs[0]), float(xs[-1]), _CERT_GRID)
            if through_minorant:
                expected.append(("minorant array", "<f8", coarse.shape, coarse.tobytes()))
            elif F.curvature_bound is not None and c != b:
                expected.append(("array", "<f8", coarse.shape, coarse.tobytes()))
        expected.append(grid)
    assert picks is None or next(picks, None) is None, F.name
    if new_log == expected:
        return False
    assert new_log == expected[:-1], F.name
    assert expected[-1][:3] == ("array", "<f8", (DEFAULT_GRID + 1,)), F.name
    return True


class TestOracleMatchesReference:
    """Same offsets as the reference oracle, and the same loss queries in the
    same order, except those _certified lists."""

    def test_find_offset_queries_and_results(self):
        seen = dict.fromkeys(
            ("none", "retried", "refined", "part_absorbed", "all_absorbed", "left", "right",
             "b_reused"), 0
        )
        decided = {"certified": 0, "grid": 0, "minorant": 0}
        convexities = set()
        for kind, F, req in _oracle_requests():
            e_t, e_prev, z_limit, Z = req
            new, ref = _Recorder(F), _Recorder(F)
            got = find_offset(new.loss, *req)
            passes = []
            want = _ref_find_offset(ref.loss, *req, MAX_RETRIES, passes=passes)
            assert (got is None and want is None) or got == want, (kind, req)
            picks = [picked for _, picked in passes if picked is not None]
            certified = _certified(F, new.log, ref.log, picks)
            assert not certified or want is not None, (kind, req)
            if F.smoothness_beta is not None:
                decided["certified"] += certified
                decided["grid"] += sum(shape == (DEFAULT_GRID + 1,) for _, _, shape, _ in new.log)
            elif F.minorant is not None:
                decided["minorant"] += certified
            sizes = [shape[0] for _, _, shape, _ in ref.log if shape]
            seen["none"] += want is None
            seen["retried"] += sizes.count(DEFAULT_GRID + 1) >= 2
            seen["refined"] += DEFAULT_GRID * REFINE_FACTOR + 1 in sizes
            seen["part_absorbed"] += 0 < passes[0][0] < Z - 1
            seen["all_absorbed"] += not picks
            seen["left" if e_prev < e_t else "right"] += 1
            seen["b_reused"] += sum(e_t + (p - e_t) == p for p in picks)
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


def _step_at(z0: float) -> LossSpec:
    """0 below z0 and 1e300 from z0 on: a chord from below z0 to any point at
    or above it has a slope that overflows to +inf when it is short enough."""

    def evaluate(z):
        return np.where(z >= z0, 1e300, 0.0)

    return LossSpec(f"step_at_{z0}", evaluate, is_convex=False)


class TestArrayRowsEqualFloatCalls:
    """Every row of an array request equals the float call bit for bit, for
    every loss, except the documented k=1 rows of a convex loss declaring
    beta; the array call is None exactly when some float call is."""

    @pytest.mark.parametrize(
        "F", _ORACLE_LOSSES + (make_builtin("zero_one"),), ids=lambda F: F.name
    )
    def test_rows_equal_the_float_calls(self, F, monkeypatch):
        import secantboost.offsets as offsets

        feasible = offsets.offset_feasible
        calls, passes = [], []

        def counting(*args, **kwargs):
            calls.append(args)
            return feasible(*args, **kwargs)

        monkeypatch.setattr(offsets, "offset_feasible", counting)
        e_t, e_prev = _find_requests(seed=31, n=120)
        # Rows from just before hinge's kink and zero_one's jump to past
        # them, and back: their first candidates overshoot, so they retry.
        e_t = np.append(e_t, [0.999, 2.0, -0.001, 2.0])
        e_prev = np.append(e_prev, [2.0, 0.999, 2.0, -0.001])
        rows = list(zip(e_t.tolist(), e_prev.tolist()))
        seen = {"none": 0, "k1": 0, "ulps": 0}
        for Z in (4, 64):
            for z_limit in (1e-2, 1e-5, 1e-8, 1e-11):
                want = [find_offset(F, *row, z_limit, Z) for row in rows]
                keep = np.array([w is not None for w in want])
                calls.clear()
                got = find_offset(F, e_t, e_prev, z_limit, Z)
                passes.append(len(calls))
                a, b = e_t[keep], e_prev[keep]
                if not keep.all():
                    seen["none"] += 1
                    assert got is None
                    got = find_offset(F, a, b, z_limit, Z)
                v1 = _first_candidate(a, b, Z)
                for i, (g, w) in enumerate(zip(got.tolist(), [w for w in want if w is not None])):
                    span = abs(b[i] - a[i])
                    if g != w:  # k=1 where rounding decides the float scan's pick
                        assert F.smoothness_beta is not None and g == v1[i] and span < 1e-5
                        seen["k1"] += 1
                    seen["ulps"] += bool(span < 100 * np.spacing(abs(a[i])))
        # Some request retried twice; every row is feasible only on hinge and zero_one.
        assert max(passes) >= 3, passes
        assert seen["ulps"] >= 10 and (seen["none"] or F.name in ("hinge", "zero_one")), seen

    def test_tied_slopes_keep_the_first_candidate(self):
        """Hinge rows on its flat part, zero_one rows off its jump: every
        candidate slope ties, and the first (shortest) candidate is kept."""
        rng = np.random.default_rng(4)
        e_t = rng.uniform(1.5, 3.0, 20)
        e_prev = e_t + rng.choice([-1.0, 1.0], 20) * rng.uniform(0.1, 0.4, 20)
        for F in (make_builtin("hinge"), make_builtin("zero_one")):
            got = find_offset(F, e_t, e_prev, 1e-3, 16)
            want = [find_offset(F, a, b, 1e-3, 16) for a, b in zip(e_t.tolist(), e_prev.tolist())]
            assert got.tolist() == want == _first_candidate(e_t, e_prev, 16).tolist()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_infinite_slopes_pick_the_first_inside_candidate(self):
        """A row whose inside slopes all overflow to +inf picks its first
        inside candidate, also after candidates absorbed into e_t.  Its chord
        then overflows, and the array call raises the float call's error."""
        below_one = float(np.nextafter(1.0, 0.0))
        above_one = float(np.nextafter(np.nextafter(1.0, 2.0), 2.0))
        rows = [(-5e-324, 1e-12, _step_at(0.0), False), (below_one, above_one, _step_at(1.0), True)]
        for e_t, e_prev, F, absorbed in rows:
            z = e_t + (e_prev - e_t) / 64 * np.arange(1, 64)
            inside = (z - e_t) * (z - e_prev) < 0.0
            assert inside[0] != absorbed
            first = float(z[inside][0] - e_t)
            assert np.isinf((F(z[inside]) - F(e_t)) / (z[inside] - e_t)).all()
            with pytest.raises(ConfigError) as scalar:
                find_offset(F, e_t, e_prev, 1e-3)
            assert f"for the offset {first!r} at z={e_t!r}" in str(scalar.value)
            a, b = np.array([e_t, e_t - 1.0]), np.array([e_prev, e_t - 0.5])
            with pytest.raises(ConfigError) as array:
                find_offset(F, a, b, 1e-3)
            assert str(array.value) == str(scalar.value)


class TestArrayRequestMemory:
    """Both 2-d passes of an array request, the scan and the certificate's
    coarse grid, hold at most _BLOCK_POINTS points per block (one row where a
    single row is wider), so memory does not grow with precision_Z."""

    @staticmethod
    def _requests(n: int, seed: int):
        rng = np.random.default_rng(seed)
        e_t = rng.uniform(-4.0, 4.0, n)
        return e_t, e_t + rng.choice([-1.0, 1.0], n) * rng.uniform(0.01, 1.0, n)

    def test_no_loss_query_exceeds_the_point_budget(self, monkeypatch):
        import secantboost.bregman as bregman

        F = _Recorder(make_builtin("clipped_logistic", q=-2.0))
        e_t, e_prev = self._requests(300, seed=6)
        points = 4096  # above every single-row grid (513, and 2049 on a refine)
        monkeypatch.setattr(bregman, "_BLOCK_POINTS", points)
        for Z in (64, 8192):  # Z - 1 candidates per row: below the budget, then above
            F.log.clear()
            assert find_offset(F.loss, e_t, e_prev, 1.0, Z) is not None
            sizes = [int(np.prod(shape)) for _, _, shape, _ in F.log]
            assert max(sizes) == max(Z - 1, (points // (Z - 1)) * (Z - 1)), (Z, max(sizes))
            grids = [shape for _, _, shape, _ in F.log if len(shape) == 2]
            assert grids and all(rows * width <= points for rows, width in grids), grids

    def test_memory_does_not_grow_with_precision(self):
        F = make_builtin("clipped_logistic", q=-2.0)
        e_t, e_prev = self._requests(3000, seed=7)
        peaks = {}
        for Z in (64, 4096):
            tracemalloc.start()
            try:
                assert find_offset(F, e_t, e_prev, 1.0, Z) is not None
                peaks[Z] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] - peaks[64] < 2**20, peaks
