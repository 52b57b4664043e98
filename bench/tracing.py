"""Outside-in tracing of secantboost: spans around public functions, a loss proxy.

Nothing here edits the library.  `Tracer.installed()` replaces the module
globals and methods that the driver and CLI resolve at call time with timing
wrappers, and restores them on exit.  Every wrapper records one span (name,
start, end, parent, run id).  The loss proxy records no span of its own:
each query adds its wall time to the innermost open span's child time, and
its point count to that span's layer, so a layer's self time excludes the
loss evaluations it asked for.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import importlib
import math
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Names the driver and CLI resolve through module globals or class
# attributes.  `secantboost.run` is the package-level alias library callers
# use; it wraps to the same span as `secantboost.boost.run`.
WRAP_TARGETS = (
    "secantboost.run",
    "secantboost.boost.run",
    "secantboost.boost.train_tree",
    "secantboost.boost.nonzero_shift",
    "secantboost.boost.find_alpha",
    "secantboost.boost.alpha_from_smoothness",
    "secantboost.boost.w2_from_alpha",
    "secantboost.boost.second_order_mean",
    "secantboost.boost.secant_slopes",
    "secantboost.boost.find_offset",
    "secantboost.boost.sanitize_offset",
    "secantboost.boost.telemetry_to_csv",
    "secantboost.offsets.offset_feasible",
    "secantboost.bregman.q_star",
    "secantboost.leverage.partial_weights",
    "secantboost.cli.run_cross_validation",
    "secantboost.cli.build_loss",
    "secantboost.cli.save_model",
    "secantboost.data.load_csv",
    "secantboost.trees.WeakHypothesis.predict_dataset",
    "secantboost.data.Dataset.subset",
)

# Layers a loss query can be attributed to (the innermost open span's
# module); "bench" collects queries made outside any span.
LOSS_CALLER_LAYERS = ("boost", "offsets", "bregman", "leverage", "vderiv")


class WrapPointError(RuntimeError):
    """A wrap target no longer resolves to a callable."""


def span_name(fn) -> str:
    """`<layer>.<function>` where the layer is the defining module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def resolve(dotted: str):
    """Return (owner, attribute, value) for a dotted module/class attribute path."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            value = getattr(owner, parts[-1])
        except AttributeError:
            break
        if callable(value):
            return owner, parts[-1], value
        break
    raise WrapPointError(f"wrap target {dotted} does not resolve to a callable")


class _Frame:
    """One open span."""

    __slots__ = ("layer", "span_id", "parent_id", "run_id", "child_s", "kids", "routes")

    def __init__(self, layer, span_id, parent_id, run_id, routes):
        self.layer = layer
        self.span_id = span_id
        self.parent_id = parent_id
        self.run_id = run_id
        self.child_s = 0.0  # wall time of child spans and direct loss queries
        self.kids = 0  # direct child spans
        self.routes = routes  # route alphas on boost.run frames, else None


class RepTrace:
    """Counters, self times and spans of one traced workload run."""

    def __init__(self, rep: int):
        self.rep = rep
        self.stack: list[_Frame] = []
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.loss_points = Counter()
        self.next_span = 1
        self.next_run = 0
        self.names: dict[str, int] = {}
        self.span_name = array("l")
        self.span_id = array("l")
        self.span_parent = array("l")
        self.span_run = array("l")
        self.span_start = array("d")
        self.span_end = array("d")

    def name_index(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def enclosing_run(self) -> _Frame | None:
        for frame in reversed(self.stack):
            if frame.routes is not None:
                return frame
        return None


def _count_guard_halvings(routes: list, rows) -> int:
    """Sum of round(log2(route alpha / accepted alpha)) over leveraged rows."""
    accepted = [row.alpha for row in rows if math.isfinite(row.alpha)]
    if len(accepted) != len(routes):
        raise WrapPointError(
            f"{len(routes)} route alphas recorded for {len(accepted)} leveraged rows; "
            "the alpha_from_smoothness / find_alpha wraps no longer see every iteration"
        )
    return sum(round(math.log2(r / a)) for r, a in zip(routes, accepted))


class Tracer:
    """Installs wrappers for one traced pass at a time; keeps every pass's trace."""

    def __init__(self):
        self.reps: list[RepTrace] = []
        self.rec: RepTrace | None = None
        self._wrappers: dict[int, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _after(self, name: str):
        """Per-name bookkeeping run when a span closes: (rec, frame, result)."""
        if name == "offsets.find_offset":
            def after(rec, frame, result):
                if result is None:
                    rec.counts["offsets.infeasible"] += 1
                elif frame.kids == 1:
                    rec.counts["offsets.first_pass"] += 1
                rec.counts["offsets.retries"] += max(0, frame.kids - 1)
        elif name == "bregman.offset_feasible":
            def after(rec, frame, result):
                rec.counts["bregman.refines"] += max(0, frame.kids - 1)
        elif name == "trees.train_tree":
            def after(rec, frame, result):
                rec.counts["trees.internal_nodes"] += result.node_count
        elif name in ("leverage.alpha_from_smoothness", "leverage.find_alpha"):
            def after(rec, frame, result):
                run = rec.enclosing_run()
                if run is None:
                    raise WrapPointError(f"{name} called outside boost.run")
                run.routes.append(getattr(result, "alpha", result))
        elif name == "vderiv.secant_slopes":
            def after(rec, frame, result):
                rec.counts["vderiv.zero_weights"] += int(np.count_nonzero(result == 0.0))
                rec.counts["vderiv.weights"] += int(result.size)
        elif name == "boost.run":
            def after(rec, frame, result):
                rows = result[1]
                rec.counts["boost.iterations"] += len(rows)
                rec.counts["boost.guard_halvings"] += _count_guard_halvings(frame.routes, rows)
        elif name == "cli.build_loss":
            def after(rec, frame, result):
                return self.counting(result)
        else:
            after = None
        return after

    def _wrap(self, fn):
        name = span_name(fn)
        layer = name.split(".", 1)[0]
        after = self._after(name)
        is_run = name == "boost.run"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.rec
            stack = rec.stack
            parent = stack[-1] if stack else None
            span_id = rec.next_span
            rec.next_span += 1
            if is_run:
                rec.next_run += 1
                run_id = rec.next_run
            else:
                run_id = parent.run_id if parent is not None else 0
            frame = _Frame(layer, span_id, parent.span_id if parent else 0, run_id,
                           [] if is_run else None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                    parent.kids += 1
                rec.calls[name] += 1
                rec.self_s[name] += duration - frame.child_s
                rec.span_name.append(rec.name_index(name))
                rec.span_id.append(span_id)
                rec.span_parent.append(frame.parent_id)
                rec.span_run.append(run_id)
                rec.span_start.append(start)
                rec.span_end.append(end)
            if after is not None:
                replaced = after(rec, frame, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    def counting(self, F):
        """A copy of the LossSpec F whose evaluate counts and times each query."""
        evaluate = F.evaluate
        tracer = self

        def counted(z):
            start = perf_counter()
            out = evaluate(z)
            duration = perf_counter() - start
            rec = tracer.rec
            points = z.size if isinstance(z, np.ndarray) else 1
            if rec.stack:
                top = rec.stack[-1]
                top.child_s += duration
                layer = top.layer
            else:
                layer = "bench"
            rec.counts["losses.calls"] += 1
            rec.self_s["losses"] += duration
            rec.loss_points[layer] += points
            return out

        return dataclasses.replace(F, evaluate=counted)

    # -- install / uninstall ---------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Trace one pass of workload runs: wrap every target, restore them on exit."""
        targets = [resolve(dotted) for dotted in WRAP_TARGETS]
        self.rec = RepTrace(len(self.reps))
        saved = []
        try:
            for owner, attr, fn in targets:
                wrapper = self._wrappers.get(id(fn))
                if wrapper is None:
                    wrapper = self._wrappers[id(fn)] = self._wrap(fn)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.reps.append(self.rec)
            self.rec = None

    # -- results ----------------------------------------------------------

    def layer_metrics(self, work: int, overhead_ratio: float) -> dict:
        """Per-layer metrics: counts from the first traced pass (one
        `installed()` span, every job once), self times as medians over all
        traced passes.  `work` is that pass's sum of (training examples x
        completed boosting rows)."""
        first = self.reps[0]
        names = [span_name(resolve(dotted)[2]) for dotted in WRAP_TARGETS]
        out = {}
        for name in dict.fromkeys(names):
            out[f"{name}.calls"] = (first.calls[name], "count")
            out[f"{name}.self_s"] = (statistics.median(r.self_s[name] for r in self.reps), "s")
        c = first.counts
        finds = first.calls["offsets.find_offset"]
        out["offsets.first_pass_ratio"] = (c["offsets.first_pass"] / finds if finds else 0.0, "ratio")
        out["offsets.retries"] = (c["offsets.retries"], "count")
        out["offsets.infeasible"] = (c["offsets.infeasible"], "count")
        out["offsets.reused"] = (first.calls["offsets.sanitize_offset"], "count")
        out["bregman.refines"] = (c["bregman.refines"], "count")
        out["trees.internal_nodes"] = (c["trees.internal_nodes"], "count")
        out["leverage.find_alpha.halvings"] = (
            first.calls["leverage.partial_weights"] - first.calls["leverage.find_alpha"], "count")
        out["boost.iterations"] = (c["boost.iterations"], "count")
        out["boost.guard_halvings"] = (c["boost.guard_halvings"], "count")
        weights = c["vderiv.weights"]
        out["vderiv.zero_weight_frac"] = (c["vderiv.zero_weights"] / weights if weights else 0.0, "ratio")
        points = sum(first.loss_points.values())
        out["losses.calls"] = (c["losses.calls"], "count")
        out["losses.points"] = (points, "count")
        out["losses.self_s"] = (statistics.median(r.self_s["losses"] for r in self.reps), "s")
        for layer in LOSS_CALLER_LAYERS:
            out[f"losses.points.{layer}"] = (first.loss_points[layer], "count")
        out["losses.points_per_ex_iter"] = (points / work if work else 0.0, "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path) -> int:
        """Write every recorded span as gzip'd CSV; returns the span count."""
        total = 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("rep,run_id,span_id,parent_id,name,start_s,end_s\n")
            for rec in self.reps:
                names = list(rec.names)
                for k in range(len(rec.span_id)):
                    fh.write(
                        f"{rec.rep},{rec.span_run[k]},{rec.span_id[k]},{rec.span_parent[k]},"
                        f"{names[rec.span_name[k]]},{rec.span_start[k]!r},{rec.span_end[k]!r}\n"
                    )
                total += len(rec.span_id)
        return total
