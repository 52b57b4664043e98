"""Tests of the benchmark itself: transparent wrappers, derived counters,
reproducible inputs, loud wrap points.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import secantboost as sb  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny_board(seed):
    boards, y = workloads.board_data(seed, m=60)
    return [f"c{j}" for j in range(9)], boards, y


def _tiny_wide(seed):
    X, y = workloads.noisy_linear_data(seed, m=80, d=3)
    return ["f0", "f1", "f2"], [[f"{v:.6f}" for v in row] for row in X], y


TINY = (
    workloads.LibraryWorkload(
        "tiny_rough", (("clipped_logistic", {"q": -2.0}), ("spring", {"Q": 500.0})), 6,
        ("completed", "offsets_infeasible"), False, (),
    ),
    workloads.CvWorkload(
        "tiny_cv", _tiny_board,
        ["cv", "--loss", "logistic", "--max-nodes", "4", "-T", "3", "--folds", "3",
         "--noise-eta", "0.1"],
        (), folds=3,
    ),
    workloads.TrainWorkload(
        "tiny_train", _tiny_wide, ["train", "--loss", "logistic", "--max-nodes", "4", "-T", "3"], (),
    ),
)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_reproduces_untraced_digest(workload, tmp_path):
    inputs = workload.prepare(sb, 5, tmp_path)
    plain = workload.check(sb, inputs, workload.execute(sb, inputs))
    assert plain.problems == []

    tracer = tracing.Tracer()
    workload.reset(inputs)
    with tracer.installed():
        result = workload.execute(sb, inputs, tracer.counting)
    traced = workload.check(sb, inputs, result)

    assert traced.problems == []
    assert traced.digest == plain.digest
    assert tracer.reps[0].calls["boost.run"] >= 1
    # Every wrapper is removed again.
    for dotted in tracing.WRAP_TARGETS:
        assert not hasattr(tracing.resolve(dotted)[2], "__wrapped__"), dotted


def _first_scan_offset(e_t, e_prev, Z):
    """The oracle's first candidate: extremal secant slope on the Z-point scan."""
    delta = (e_prev - e_t) / Z
    z = e_t + delta * np.arange(1, Z)
    z = z[(z - e_t) * (z - e_prev) < 0.0]
    return z, delta


def test_derived_counters_match_hand_computed():
    X, y = workloads.separable_data(seed=3, m=40)
    S = sb.dataset_from_numeric(X, y)
    # A coarse first scan makes the oracle retry on this run.
    F = sb.make_builtin("spring", Q=50.0)
    cfg = sb.BoostConfig(record_vectors=True, seed=1, precision_Z=4)
    tracer = tracing.Tracer()
    with tracer.installed():
        ens, rows = sb.run(tracer.counting(F), S, 8, cfg)
    got = tracer.layer_metrics(work=1, overhead_ratio=1.0)

    guard = find_alpha_halvings = first_pass = fresh = 0
    for row, (alpha, h) in zip(rows, ens.terms):
        hv = h.predict_dataset(S)
        route = sb.find_alpha(
            F, S, None, row.weights, h, row.offsets, cfg.delta_init,
            margins_prev=row.edges_tilde, h_values=hv,
        )
        guard += round(math.log2(route / alpha))
        find_alpha_halvings += round(math.log2(cfg.delta_init / abs(route)))
        for i in np.nonzero(~row.offsets_reused)[0]:
            e_t, e_p = float(row.edges_new[i]), float(row.edges_tilde[i])
            z, delta = _first_scan_offset(e_t, e_p, cfg.precision_Z)
            slopes = (F(z) - F(e_t)) / (z - e_t)
            v = float(z[np.argmin(slopes) if delta > 0 else np.argmax(slopes)] - e_t)
            first_pass += bool(sb.offset_feasible(F, e_t, e_p, v, row.z_limit))
            fresh += 1

    assert rows[-1].stop_reason == "completed"
    assert got["boost.guard_halvings"][0] == guard
    assert got["leverage.find_alpha.halvings"][0] == find_alpha_halvings
    assert got["offsets.find_offset.calls"][0] == fresh
    assert got["offsets.first_pass_ratio"][0] == pytest.approx(first_pass / fresh, abs=0)
    # The run must exercise each counter for the comparison to mean anything.
    assert guard > 0 and find_alpha_halvings > 0 and 0 < first_pass < fresh


@pytest.mark.parametrize(
    "generate", [workloads.separable_data, workloads.board_data, workloads.noisy_linear_data],
)
def test_generators_are_reproducible_from_the_seed(generate):
    a, b, c = generate(11), generate(11), generate(12)
    assert all(np.array_equal(np.asarray(p), np.asarray(q)) for p, q in zip(a, b))
    assert not np.array_equal(np.asarray(a[0]), np.asarray(c[0]))


def test_cli_inputs_are_byte_identical_for_one_seed(tmp_path):
    for w in (workloads.WORKLOADS["board_cv"], workloads.WORKLOADS["wide_numeric"]):
        paths = []
        for sub in ("a", "b"):
            workdir = tmp_path / w.name / sub
            workdir.mkdir(parents=True)
            paths.append(w.prepare(sb, 4, workdir)["data"])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_unresolvable_wrap_point_stops_the_traced_run(monkeypatch):
    monkeypatch.delattr(sb.boost, "find_offset")
    with pytest.raises(tracing.WrapPointError, match="secantboost.boost.find_offset"):
        with tracing.Tracer().installed():
            pass


def test_zero_required_counter_fails_every_traced_run():
    outcome = workloads.Outcome("d", 1, 0.1, 0.0, 0.9)
    reps = [
        {"kind": kind, "job": 0, "wall": 1.0, "outcome": outcome, "error": None}
        for kind in ("warmup", "traced", "plain")
    ]
    assert run.judge(reps, flagged=["offsets.find_offset.calls"]) == 1
    assert reps[1]["problems"] == ["counter offsets.find_offset.calls reads zero"]


def test_digest_is_compared_within_each_job():
    reps = [
        {"kind": kind, "job": job, "wall": wall, "ref": 0.5,
         "outcome": workloads.Outcome(digest, 1, 0.1, 0.0, 0.9), "error": None}
        for kind, job, digest, wall in (
            ("warmup", 0, "a", 9.0), ("warmup", 1, "b", 9.0), ("plain", 0, "a", 1.0),
            ("plain", 1, "c", 2.0), ("plain", 1, "b", 3.0),
        )
    ]
    assert run.judge(reps) == 1
    assert [bool(r["problems"]) for r in reps] == [False, False, False, True, False]
    # Only sound runs of the asked kind count.
    assert run.per_job(reps, "plain", 2, min, run.wall) == [1.0, 3.0]
    assert run.per_job(reps, "plain", 2, max, run.run_at_reference) == pytest.approx(
        [run.at_reference(1.0, 0.5), run.at_reference(3.0, 0.5)])
    assert run.per_job(reps, "traced", 2, min, run.wall) is None


def test_job_inputs_are_distinct_and_reproducible(tmp_path):
    w = workloads.WORKLOADS["rough_nonconvex"]
    a = w.prepare_jobs(sb, 7, tmp_path / "a")
    b = w.prepare_jobs(sb, 7, tmp_path / "b")
    assert len(a) == w.jobs > 1
    for x, y in zip(a, b):
        assert np.array_equal(x["S"].labels, y["S"].labels)
    assert not np.array_equal(a[0]["S"].labels, a[1]["S"].labels)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stumps_logistic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
