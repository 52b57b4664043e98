"""Run one secantboost benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.  The load
is one closed-loop caller: one process, no threads, one training run at a
time.  A workload is a bundle of jobs, each a full workload run on its own
inputs drawn from the seed.  Set-up (a fresh `import secantboost` plus
building every job's inputs) runs SETUPS times and reports its median.
Then passes over the jobs run back to back for about S seconds; the first
pass is a warm-up and is not timed.

--trace 0 reports the end-to-end metrics.  Times are reported at
reference speed: each run's and each set-up's wall seconds are scaled by
the reference loop (bench/reference.py) timed right around it.  On a shared
host the core's speed swings by half or more for tens of seconds, and the
scaling cancels that swing where raw seconds cannot.  Raw wall seconds are
printed alongside.  --trace 1 alternates traced and untraced passes
and reports the per-layer metrics, including the tracing overhead.  Every
run's outputs are checked and hashed; a run that raises, fails a check, or
produces a digest other than its job's first run counts as failed.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Spans
and a full result record go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUPS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload, seed: int, workdir: Path):
    """Import secantboost afresh and build every job's inputs; returns (sb, jobs, seconds)."""
    for name in [n for n in sys.modules if n == "secantboost" or n.startswith("secantboost.")]:
        del sys.modules[name]
    start = time.perf_counter()
    sb = importlib.import_module("secantboost")
    jobs = workload.prepare_jobs(sb, seed, workdir)
    return sb, jobs, time.perf_counter() - start


def run_job(sb, workload, inputs, kind, job, tracer):
    """One workload run on one job's inputs; returns its rep record."""
    from tracing import WrapPointError

    workload.reset(inputs)
    rep = {"kind": kind, "job": job, "wall": None, "outcome": None, "error": None}
    start = time.perf_counter()
    try:
        if kind == "traced":
            result = workload.execute(sb, inputs, tracer.counting)
        else:
            result = workload.execute(sb, inputs)
        rep["wall"] = time.perf_counter() - start
        rep["outcome"] = workload.check(sb, inputs, result)
    except WrapPointError:
        raise
    except Exception:  # a failed run is counted, reported and the loop goes on
        rep["error"] = traceback.format_exc()
        print(rep["error"], file=sys.stderr)
        if rep["wall"] is None:
            rep["wall"] = time.perf_counter() - start
    return rep


def measure(sb, workload, jobs, seconds: float, tracer):
    """Run passes over the jobs until the time is up; returns (reps, passes).

    A pass runs every job once.  Plan: one untraced warm-up pass, then
    untraced passes, or with a tracer traced and untraced passes in turn (a
    traced pass is one `tracer.installed()` span).  A pass starts only if,
    going by the previous pass of its kind, at least half of it falls before
    the deadline.  The minimum is one pass of each kind after the warm-up.
    The reference loop runs between any two workload runs; each rep's "ref"
    is the mean of the reference times right before and right after it.
    """
    from reference import reference_seconds

    kinds = ["traced", "plain"] if tracer else ["plain"]
    reps, passes = [], []
    ref_before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while True:
        kind = "warmup" if not passes else kinds[(len(passes) - 1) % len(kinds)]
        last = [w for k, w in passes if k == kind] or [w for _, w in passes]
        if passes and set(kinds) <= {k for k, _ in passes} and \
                time.perf_counter() + last[-1] / 2 > deadline:
            break
        start = time.perf_counter()
        with tracer.installed() if kind == "traced" else contextlib.nullcontext():
            for job, inputs in enumerate(jobs):
                rep = run_job(sb, workload, inputs, kind, job, tracer)
                ref_after = reference_seconds()
                rep["ref"] = (ref_before + ref_after) / 2
                ref_before = ref_after
                reps.append(rep)
        passes.append((kind, time.perf_counter() - start))
    return reps, passes


def judge(reps, flagged=()) -> int:
    """Mark each rep's problems in place; returns the number of failed reps.

    Each rep's digest must equal that of the first run of its job.
    `flagged` names per-layer counters that read zero although the workload
    must drive them; every traced run then fails.
    """
    reference = {}
    for r in reps:
        if r["outcome"]:
            reference.setdefault(r["job"], r["outcome"].digest)
    failed = 0
    for r in reps:
        problems = []
        if r["error"]:
            problems.append(r["error"].strip().splitlines()[-1])
        elif r["outcome"].problems:
            problems += r["outcome"].problems
        elif r["outcome"].digest != reference[r["job"]]:
            problems.append(f"job {r['job']}: digest {r['outcome'].digest} differs from the "
                            f"first run's {reference[r['job']]}")
        if r["kind"] == "traced":
            problems += [f"counter {name} reads zero" for name in flagged]
        r["problems"] = problems
        failed += bool(problems)
    return failed


def mean_of(outcomes, attr: str) -> float:
    return statistics.fmean(getattr(o, attr) for o in outcomes)


def per_job(reps, kind, n_jobs, stat, value):
    """`stat` over each job's sound runs of `kind` of value(rep); None if a job has none."""
    groups = [[] for _ in range(n_jobs)]
    for r in reps:
        if r["kind"] == kind and not r["problems"]:
            groups[r["job"]].append(value(r))
    return [stat(g) for g in groups] if all(groups) else None


def at_reference(seconds: float, ref: float) -> float:
    """Wall seconds scaled to reference speed, `ref` being the loop's time around them."""
    from reference import REFERENCE_S

    return seconds * REFERENCE_S / ref


def run_at_reference(rep) -> float:
    return at_reference(rep["wall"], rep["ref"])


def wall(rep) -> float:
    return rep["wall"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secantboost" / "__init__.py").is_file():
        print(f"error: no secantboost package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Pin BLAS/OpenMP pools before numpy is first imported (by the modules below).
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once here so set-up times exclude it)
    from reference import reference_seconds
    from tracing import Tracer, WrapPointError
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, setup_refs = [], []
        ref_before = reference_seconds()
        for _ in range(SETUPS):
            shutil.rmtree(workdir)
            workdir.mkdir()
            sb, jobs, seconds = set_up(workload, args.seed, workdir)
            ref_after = reference_seconds()
            setups.append(seconds)
            setup_refs.append((ref_before + ref_after) / 2)
            ref_before = ref_after
        tracer = Tracer() if args.trace else None
        try:
            reps, passes = measure(sb, workload, jobs, args.seconds, tracer)
        except WrapPointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The warm-up pass ran every job once, first; its outcomes are the references.
    first = [r["outcome"] for r in reps[:len(jobs)]]
    work = sum(o.work for o in first) if all(first) else 0
    flagged = []
    if args.trace:
        judge(reps)  # marks problems, so that per_job sees only sound runs
        plain = per_job(reps, "plain", len(jobs), statistics.median, run_at_reference)
        traced = per_job(reps, "traced", len(jobs), statistics.median, run_at_reference)
        overhead = sum(traced) / sum(plain) if plain and traced else 0.0
        metrics = tracer.layer_metrics(work, overhead)
        flagged = [name for name in workload.required if not metrics[name][0]]
    failed = judge(reps, flagged)
    for r in reps:
        for problem in r["problems"]:
            print(f"FAILED {r['kind']} run: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": len(jobs),
        "digests": [o.digest if o else None for o in first],
        "setup_runs_s": setups, "setup_refs_s": setup_refs,
        "passes": [{"kind": k, "wall_s": w} for k, w in passes],
        "runs": [{"kind": r["kind"], "job": r["job"], "wall_s": r["wall"],
                  "ref_s": r["ref"], "problems": r["problems"],
                  "digest": r["outcome"].digest if r["outcome"] else None} for r in reps],
    }
    ok = all(first)
    if args.trace == 0:
        at_ref = per_job(reps, "plain", len(jobs), statistics.median, run_at_reference)
        medians = per_job(reps, "plain", len(jobs), statistics.median, wall)
        best = per_job(reps, "plain", len(jobs), min, wall)
        timed = [r for r in reps if r["kind"] == "plain" and not r["problems"]]
        metrics = {
            "train_s": (statistics.fmean(at_ref) if at_ref else None, "s"),
            "ex_iters_per_s": (work / sum(at_ref) if at_ref else None, "1/s"),
            "setup_s": (statistics.median(map(at_reference, setups, setup_refs)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "loss_reduction": (mean_of(first, "loss_reduction") if ok else None, "frac"),
            "final_acc": (1.0 - mean_of(first, "final_err") if ok else None, "frac"),
        }
        extra = {
            "train_s.samples": (len(timed), "count"),
            "train_wall_s": (statistics.fmean(medians) if medians else None, "s"),
            "train_wall_s.best": (statistics.fmean(best) if best else None, "s"),
            "ex_iters_per_wall_s": (work / sum(medians) if medians else None, "1/s"),
            "setup_wall_s": (statistics.median(setups), "s"),
            "ref_s": (statistics.median(r["ref"] for r in reps), "s"),
            "final_train_loss": (mean_of(first, "final_train_loss") if ok else None, "loss"),
            "final_err": (mean_of(first, "final_err") if ok else None, "frac"),
            "failed_frac": (failed / len(reps), "frac"),
        }
    else:
        for name in flagged:
            print(f"FLAGGED: {name} reads zero on {args.workload}, which must call it",
                  file=sys.stderr)
        record["flagged_zero"] = flagged
        record["spans"] = tracer.write_spans(OUT / f"spans-{tag}.csv.gz")
        extra = {"traced_passes": (sum(k == "traced" for k, _ in passes), "count"),
                 "untraced_passes": (sum(k == "plain" for k, _ in passes), "count"),
                 "failed_frac": (failed / len(reps), "frac")}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  runs {len(reps)} ({len(jobs)} warm-up)  failed {failed}")
    for j, o in enumerate(first):
        print(f"  job {j} digest {o.digest if o else None}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:36s} {value!r:>24} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
