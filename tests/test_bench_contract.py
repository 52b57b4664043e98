"""The benchmark's contract with the library: a traced run of each workload
passes its own checks and drives every counter the workload requires.

bench/run.py fails every traced run of a workload whose required counter
reads zero, so a change to the library's call structure that silences a
counter would fail the benchmark.  This runs job 0 of each workload once
under the tracer, at a fixed seed, so that such a change fails here first.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import secantboost as sb  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


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
