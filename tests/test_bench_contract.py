"""The benchmark's contract with the library: a traced run of each workload
passes its own checks and drives every counter the workload requires.

bench/run.py fails every traced run of a workload whose required counter
reads zero, so a change to the library's call structure that silences a
counter would fail the benchmark.  This runs job 0 of each workload once
under the tracer, at a fixed seed, so that such a change fails here first.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import secantboost as sb  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5
# Workloads on logistic loss, whose offsets are decided one array request per
# iteration: a per-row fallback would show as extra find_offset calls and as
# loss points evaluated in the offsets layer (the float scan's candidates).
BATCHED = ("board_cv", "stumps_logistic", "wide_numeric")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_job_drives_every_required_counter(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(sb, workloads.job_seed(SEED, 0), tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = workload.execute(sb, inputs, tracer.counting)
    outcome = workload.check(sb, inputs, result)
    assert outcome.problems == []
    metrics = tracer.layer_metrics(outcome.work, overhead_ratio=1.0)
    assert [counter for counter in workload.required if not metrics[counter][0]] == []
    if name in BATCHED:
        assert metrics["offsets.find_offset.calls"][0] == metrics["boost.iterations"][0]
        assert metrics["losses.points.offsets"][0] == 0


def test_board_cv_seed_64_job_1_completes_with_lipschitz_weights(tmp_path, monkeypatch):
    """Data seed 64001, fold 1: at t=1 edges move by ~6e-17, where the float
    scan's extremal-slope pick was decided by rounding; its offset gave
    weights up to 41 (the logistic loss is 1-Lipschitz) and the fold stopped
    offsets_infeasible.  With the first candidate every fold completes."""
    workload = workloads.WORKLOADS["board_cv"]
    inputs = workload.prepare(sb, workloads.job_seed(64, 1), tmp_path)
    runs = []
    run = sb.boost.run

    def recording(F, S, T, config):
        ens, rows = run(F, S, T, dataclasses.replace(config, record_vectors=True))
        runs.append(rows)
        return ens, rows

    monkeypatch.setattr(sb.boost, "run", recording)
    result = workload.execute(sb, inputs)
    assert result[0] == 0
    assert workload.check(sb, inputs, result).problems == []
    assert [rows[-1].stop_reason for rows in runs] == ["completed"] * workload.folds
    w_max = max(float(np.max(np.abs(row.weights))) for rows in runs for row in rows)
    assert w_max <= 1.0 + 1e-9
