"""The benchmark's workloads: input generators, program calls and output checks.

A workload runs as a bundle of `jobs` independent inputs, job k built from
the seed `job_seed(seed, k)`, so that one benchmark seed averages over
several data sets.  Each job has three steps.  `prepare` builds its inputs
(and, for CLI workloads, writes them as CSV).  `execute` drives secantboost
the way its users do and is the only timed step.  `check` turns the outputs
into an `Outcome`: a digest of everything the program produced, the work
done, the quality figures, and every failed correctness check.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Slack of the per-row decrease rule, as in acceptance criterion c06.
DECREASE_TOL = 1e-8


@dataclass
class Outcome:
    digest: str
    work: int  # sum over boosting runs of training examples x completed rows
    final_train_loss: float  # last row's training loss, mean over boosting runs
    final_err: float  # last row's training error; mean test error for CV
    loss_reduction: float  # 1 - final_train_loss / F(0), mean over boosting runs
    problems: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# input generators (pure functions of the seed)


def job_seed(seed: int, job: int) -> int:
    """Data seed of job `job` in the bundle of benchmark seed `seed`."""
    return 1000 * seed + job


def separable_data(seed: int, m: int = 200, margin: float = 0.3):
    """Two numeric features; positive iff both are positive, every |x_j| > margin.

    Separable by two stumps, so logistic stumps reach zero training error
    within a few rounds on every seed.  (The test suite's oblique separable200
    shape reaches it on its own seed, but on about half of seeds 0-15 it
    stops at 0.5-1.5% error after 200 rounds.)
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4 * m, 2))
    X = X[np.all(np.abs(X) > margin, axis=1)][:m]
    if X.shape[0] != m:
        raise RuntimeError("not enough margin-respecting draws")
    y = np.where((X[:, 0] > 0.0) & (X[:, 1] > 0.0), 1.0, -1.0)
    return X, y


_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def board_data(seed: int, m: int = 460):
    """m unique 3x3 boards over {x, o, b}; positive iff three x in a line, ~45% positive."""
    rng = np.random.default_rng(seed)
    boards: dict = {}
    n_pos = 0
    want_pos = int(0.45 * m)
    while len(boards) < m:
        cells = tuple(rng.choice(["x", "o", "b"], size=9, p=[0.42, 0.38, 0.20]))
        if cells in boards:
            continue
        label = 1 if any(all(cells[j] == "x" for j in line) for line in _LINES) else -1
        if label > 0 and n_pos >= want_pos:
            continue
        if label < 0 and len(boards) - n_pos >= m - want_pos:
            continue
        boards[cells] = label
        n_pos += label > 0
    return [list(c) for c in boards], np.array(list(boards.values()), dtype=np.float64)


def noisy_linear_data(seed: int, m: int = 3200, d: int = 8, noise: float = 0.5):
    """d standard-normal features; label = sign(x . w + noise * N(0, 1)), w fixed."""
    rng = np.random.default_rng(seed)
    w = np.linspace(1.0, 0.125, d) * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    X = np.round(rng.normal(size=(m, d)), 6)
    y = np.where(X @ w + noise * rng.normal(size=m) > 0.0, 1.0, -1.0)
    return X, y


def write_csv(path: Path, header, rows, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(list(header) + ["label"])
        for row, label in zip(rows, labels):
            out.writerow(list(row) + [int(label)])


# ---------------------------------------------------------------------------
# telemetry checks shared by every workload


def parse_telemetry(sb, text: str) -> list:
    """Telemetry CSV text back into BoostIterState rows (floats round-trip via repr)."""
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        values = {k: float(v) for k, v in rec.items() if k not in ("t", "stop_reason")}
        rows.append(sb.BoostIterState(t=int(rec["t"]), stop_reason=rec["stop_reason"], **values))
    return rows


def completed_rows(rows) -> int:
    """Rows whose iteration finished its offset refresh."""
    done = [r for r in rows if math.isfinite(r.alpha)]
    if rows and rows[-1].stop_reason == "offsets_infeasible":
        done = done[:-1]
    return len(done)


def run_problems(sb, label: str, rows, f0, allowed_stops) -> list:
    """The c06 decrease rule, loss monotonicity and the documented stop reasons.

    f0 is the loss at the ensemble's h0; None skips the first row's
    decrease test (the cv subcommand writes no ensemble).
    """
    problems = []
    if not rows:
        return [f"{label}: no telemetry rows"]
    f_prev = f0
    for row in rows:
        if f_prev is not None:
            if math.isfinite(row.alpha):
                bound = sb.guaranteed_decrease_bound(row, row.alpha)
                if f_prev - row.train_loss < bound - DECREASE_TOL:
                    problems.append(
                        f"{label} t={row.t}: realized decrease {f_prev - row.train_loss!r} "
                        f"below bound {bound!r}"
                    )
            if row.train_loss > f_prev + DECREASE_TOL:
                problems.append(f"{label} t={row.t}: training loss rose to {row.train_loss!r}")
        f_prev = row.train_loss
    if any(r.stop_reason != "none" for r in rows[:-1]):
        problems.append(f"{label}: stop reason before the last row")
    if rows[-1].stop_reason not in allowed_stops:
        problems.append(f"{label}: stop reason {rows[-1].stop_reason!r} not in {allowed_stops}")
    return problems


def model_text(ens) -> str:
    """Canonical text of an ensemble's h0 and terms (alpha and tree, preorder)."""
    parts = [repr(float(ens.h0))]

    def node(n):
        if n.is_leaf:
            parts.append(f"leaf {n.value!r}")
            return
        parts.append(f"split {n.feature} {n.threshold!r} {n.category!r}")
        node(n.left)
        node(n.right)

    for alpha, h in ens.terms:
        parts.append(f"term {float(alpha)!r} {h.node_count}")
        node(h.root)
    return "\n".join(parts)


def digest_of(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A bundle of `jobs` inputs; subclasses define prepare/reset/execute/check."""

    jobs = 1

    def prepare_jobs(self, sb, seed: int, workdir: Path) -> list:
        """Every job's inputs, job k in workdir/job<k>."""
        out = []
        for k in range(self.jobs):
            jobdir = workdir / f"job{k}"
            jobdir.mkdir(parents=True, exist_ok=True)
            out.append(self.prepare(sb, job_seed(seed, k), jobdir))
        return out


class LibraryWorkload(Workload):
    """`secantboost.run` on in-memory data, one or more losses in sequence."""

    def __init__(self, name, losses, T, allowed_stops, needs_zero_error, required, jobs=1):
        self.name = name
        self.losses = losses  # ((builtin name, params), ...)
        self.T = T
        self.allowed_stops = allowed_stops
        self.needs_zero_error = needs_zero_error
        self.required = required
        self.jobs = jobs

    def prepare(self, sb, seed: int, workdir: Path):
        X, y = separable_data(seed)
        S = sb.dataset_from_numeric(X, y)
        specs = [sb.make_builtin(name, **params) for name, params in self.losses]
        return {"seed": seed, "S": S, "losses": specs}

    def reset(self, inputs) -> None:
        """Nothing persists between runs."""

    def execute(self, sb, inputs, wrap_loss=None):
        results = []
        for F in inputs["losses"]:
            G = wrap_loss(F) if wrap_loss else F
            ens, rows = sb.run(G, inputs["S"], self.T, sb.BoostConfig(seed=inputs["seed"]))
            results.append((F, ens, rows))
        return results

    def check(self, sb, inputs, results) -> Outcome:
        S = inputs["S"]
        chunks, problems = [], []
        work, losses, errs, reductions = 0, [], [], []
        for F, ens, rows in results:
            buf = io.StringIO()
            sb.telemetry_to_csv(rows, buf)
            text = buf.getvalue()
            chunks += [text, model_text(ens)]
            parsed = parse_telemetry(sb, text)
            f0 = float(np.mean(F(S.labels * ens.h0)))
            problems += run_problems(sb, F.name, parsed, f0, self.allowed_stops)
            if self.needs_zero_error and min(r.train_err for r in parsed) != 0.0:
                problems.append(f"{F.name}: training error never reached 0")
            work += S.m * completed_rows(parsed)
            losses.append(parsed[-1].train_loss)
            errs.append(parsed[-1].train_err)
            reductions.append(1.0 - parsed[-1].train_loss / float(F(0.0)))
        return Outcome(
            digest_of(chunks), work, float(np.mean(losses)), float(np.mean(errs)),
            float(np.mean(reductions)), problems,
        )


class CliWorkload(Workload):
    """`secantboost.cli.main` in-process on a CSV the benchmark writes."""

    def __init__(self, name, make_csv, argv, required, jobs=1):
        self.name = name
        self.make_csv = make_csv
        self.argv = argv  # argv before the data and output paths
        self.required = required
        self.jobs = jobs

    def prepare(self, sb, seed: int, workdir: Path):
        header, rows, labels = self.make_csv(seed)
        data = workdir / f"{self.name}.csv"
        write_csv(data, header, rows, labels)
        return {"seed": seed, "data": data, "out": workdir / f"{self.name}-out", "labels": labels}

    def execute(self, sb, inputs, wrap_loss=None):
        from secantboost import cli

        argv = self.argv + ["--seed", str(inputs["seed"]), str(inputs["data"]), str(inputs["out"])]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def reset(self, inputs) -> None:
        """Remove the previous run's outputs so a missing file cannot pass."""
        shutil.rmtree(inputs["out"], ignore_errors=True)

    def _common(self, inputs, result, promised):
        code, stdout = result
        problems = [] if code == 0 else [f"exit code {code}"]
        out = inputs["out"]
        missing = [p for p in promised if not (out / p).is_file()]
        if missing:
            problems.append(f"missing outputs {missing}")
        try:
            summary = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            summary = None
            problems.append("no JSON summary on stdout")
        files = {p: (out / p).read_bytes() for p in promised if p not in missing}
        return problems, summary, files


class TrainWorkload(CliWorkload):
    def check(self, sb, inputs, result) -> Outcome:
        promised = ("telemetry.csv", "model.json")
        problems, summary, files = self._common(inputs, result, promised)
        if problems:
            return Outcome(digest_of(files.values()), 0, math.nan, math.nan, math.nan, problems)
        F = sb.make_builtin("logistic")
        y = np.asarray(inputs["labels"], dtype=np.float64)
        rows = parse_telemetry(sb, files["telemetry.csv"].decode("utf-8"))
        h0 = float(json.loads(files["model.json"])["h0"])
        problems += run_problems(sb, "train", rows, float(np.mean(F(y * h0))), ("completed",))
        last = rows[-1]
        if summary is None or summary.get("iterations") != len(rows) or summary.get("stop_reason") != last.stop_reason:
            problems.append(f"stdout summary {summary} disagrees with telemetry.csv")
        return Outcome(
            digest_of(files[p] for p in promised), y.size * completed_rows(rows),
            last.train_loss, last.train_err, 1.0 - last.train_loss / float(F(0.0)), problems,
        )


class CvWorkload(CliWorkload):
    def __init__(self, name, make_csv, argv, required, folds, jobs=1):
        super().__init__(name, make_csv, argv, required, jobs)
        self.folds = folds

    def check(self, sb, inputs, result) -> Outcome:
        fold_files = tuple(f"fold_{j:02d}_telemetry.csv" for j in range(self.folds))
        promised = fold_files + ("cv_curves.csv",)
        problems, summary, files = self._common(inputs, result, promised)
        if problems:
            return Outcome(digest_of(files.values()), 0, math.nan, math.nan, math.nan, problems)
        F = sb.make_builtin("logistic")
        y = np.asarray(inputs["labels"], dtype=np.float64)
        m_train = y.size * (self.folds - 1) / self.folds  # mean training-fold size
        work, losses = 0, []
        for j, name in enumerate(fold_files):
            rows = parse_telemetry(sb, files[name].decode("utf-8"))
            problems += run_problems(sb, f"fold {j}", rows, None, ("completed",))
            work += completed_rows(rows) * m_train
            losses.append(rows[-1].train_loss)
        curves = list(csv.DictReader(io.StringIO(files["cv_curves.csv"].decode("utf-8"))))
        test_err = float(curves[-1]["mean_test_err"])
        baseline = min(float(np.mean(y > 0)), float(np.mean(y < 0)))
        if not test_err < baseline:
            problems.append(f"mean test error {test_err} not below majority baseline {baseline}")
        if summary is None or summary.get("final_mean_test_err") != test_err:
            problems.append(f"stdout summary {summary} disagrees with cv_curves.csv")
        final = float(np.mean(losses))
        return Outcome(
            digest_of(files[p] for p in promised), int(round(work)), final, test_err,
            1.0 - final / float(F(0.0)), problems,
        )


def _board_csv(seed):
    boards, y = board_data(seed)
    return [f"c{j}" for j in range(9)], boards, y


def _wide_csv(seed):
    X, y = noisy_linear_data(seed)
    return [f"f{j}" for j in range(X.shape[1])], [[f"{v:.6f}" for v in row] for row in X], y


# Counters each workload must drive above zero in a traced run.
_CORE = (
    "boost.run.calls", "boost.iterations", "trees.train_tree.calls", "trees.nonzero_shift.calls",
    "trees.predict_dataset.calls", "data.subset.calls", "offsets.find_offset.calls",
    "offsets.first_pass_ratio", "bregman.offset_feasible.calls", "bregman.q_star.calls",
    "vderiv.secant_slopes.calls", "leverage.second_order_mean.calls", "losses.calls",
    "losses.points.bregman",
)
_SMOOTH = ("leverage.alpha_from_smoothness.calls",)
_CLI = ("cli.build_loss.calls", "data.load_csv.calls", "boost.telemetry_to_csv.calls")

WORKLOADS = {
    w.name: w
    for w in (
        LibraryWorkload(
            "stumps_logistic", (("logistic", {}),), 50, ("completed",), True, _CORE + _SMOOTH,
            jobs=3,
        ),
        LibraryWorkload(
            "rough_nonconvex",
            (("clipped_logistic", {"q": -2.0}), ("spring", {"Q": 500.0})),
            10,
            ("completed", "offsets_infeasible"),
            False,
            _CORE + ("leverage.find_alpha.calls", "leverage.partial_weights.calls",
                     "leverage.w2_from_alpha.calls"),
            jobs=8,
        ),
        CvWorkload(
            "board_cv", _board_csv,
            ["cv", "--loss", "logistic", "--max-nodes", "20", "-T", "2", "--folds", "10",
             "--noise-eta", "0.1"],
            _CORE + _SMOOTH + _CLI + ("cli.run_cross_validation.calls",),
            folds=10, jobs=4,
        ),
        TrainWorkload(
            "wide_numeric", _wide_csv,
            ["train", "--loss", "logistic", "--max-nodes", "20", "-T", "2"],
            _CORE + _SMOOTH + _CLI + ("cli.save_model.calls",),
            jobs=4,
        ),
    )
}
