"""Shared dataset builders and loss pools for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import secantboost as sb

# Property tests draw the same examples on every run and keep no example
# database, so tier-1 is deterministic; each test keeps its max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def separable_dataset(m: int = 200, margin: float = 0.6, seed: int = 23) -> sb.Dataset:
    """Two numeric features, labels linearly separable with a hard margin.

    The margin is wide enough that stump ensembles driven by conservative
    guaranteed-decrease steps reach zero training error well inside 200
    rounds; thin margins leave near-boundary stragglers that need far more
    iterations than that.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(4 * m, 2))
    raw = X @ np.array([1.0, 0.6])
    keep = np.abs(raw) > margin
    X, raw = X[keep][:m], raw[keep][:m]
    assert len(raw) == m, "not enough margin-respecting draws"
    return sb.dataset_from_numeric(X, np.sign(raw))


_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),  # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),  # columns
    (0, 4, 8), (2, 4, 6),  # diagonals
)


def _board_label(cells: tuple) -> float:
    return 1.0 if any(all(cells[j] == "x" for j in line) for line in _LINES) else -1.0


def board_dataset(m: int = 460, seed: int = 23) -> sb.Dataset:
    """Nine categorical features over {x, o, b}; positive iff three x in a line.

    Boards are unique, drawn so that roughly 45% are positive.
    """
    rng = np.random.default_rng(seed)
    boards: dict = {}
    n_pos = 0
    want_pos = int(0.45 * m)
    while len(boards) < m:
        cells = tuple(rng.choice(["x", "o", "b"], size=9, p=[0.42, 0.38, 0.20]))
        if cells in boards:
            continue
        label = _board_label(cells)
        if label > 0 and n_pos >= want_pos:
            continue
        if label < 0 and (len(boards) - n_pos) >= m - want_pos:
            continue
        boards[cells] = label
        n_pos += label > 0
    cells = list(boards)
    columns = tuple(
        np.array([cells[i][f] for i in range(m)], dtype=object) for f in range(9)
    )
    labels = np.array([boards[c] for c in cells])
    return sb.dataset_from_columns(
        columns,
        labels,
        names=tuple(f"c{f}" for f in range(9)),
        types=("categorical",) * 9,
    )


def logistic_then(bad: float, smoothness_beta: float | None = None) -> sb.LossSpec:
    """Logistic loss up to z = 0.3 and the constant `bad` (NaN or inf) above.

    It breaks LossSpec's finite-on-R contract; with a smoothness_beta the
    booster takes the smoothness route, without one the FindAlpha route.
    """

    def evaluate(z):
        return np.where(z > 0.3, bad, np.logaddexp(0.0, -z))

    name = f"logistic_then_{bad}"
    return sb.LossSpec(name, evaluate, is_convex=False, smoothness_beta=smoothness_beta)


def logistic_nan_below(z0: float = -0.5) -> sb.LossSpec:
    """Logistic loss that is NaN for z < z0: broken at the very first chord probe."""

    def evaluate(z):
        return np.where(z < z0, np.nan, np.logaddexp(0.0, -z))

    return sb.LossSpec(f"logistic_nan_below_{z0}", evaluate, is_convex=False)


def logistic_hole(
    lo: float = 0.30, hi: float = 0.31, is_convex: bool = False, bad: float = np.nan
) -> sb.LossSpec:
    """Logistic loss that is `bad` (NaN or inf) on the open interval (lo, hi), finite elsewhere.

    Margins can step over the hole, so only the chord-gap grid between two
    finite edges sees it.
    """

    def evaluate(z):
        return np.where((z > lo) & (z < hi), bad, np.logaddexp(0.0, -z))

    return sb.LossSpec(f"logistic_{bad}_between_{lo}_{hi}", evaluate, is_convex=is_convex)


def wavy_logistic(amplitude: float = 0.2, frequency: float = 2.0) -> sb.LossSpec:
    """Logistic loss plus amplitude * sin(frequency * z).

    Not convex, and F - beta*z^2/2 is concave for beta = 1/4 +
    amplitude * frequency^2, which it declares as its curvature_bound.
    """

    def evaluate(z):
        return np.logaddexp(0.0, -z) + amplitude * np.sin(frequency * z)

    beta = 0.25 + amplitude * frequency * frequency
    return sb.LossSpec("wavy", evaluate, is_convex=False, curvature_bound=beta)


@pytest.fixture
def bounded_losses(monkeypatch) -> tuple[sb.LossSpec, ...]:
    """The losses that declare curvature_bound: clipped_logistic, and a
    non-convex wavy_logistic resolved through register_loss."""
    import secantboost.losses as losses_module

    monkeypatch.setattr(losses_module, "_REGISTRY", {})
    sb.register_loss("wavy", wavy_logistic)
    return sb.make_builtin("clipped_logistic", q=-2.0), sb.make_builtin("wavy")


@pytest.fixture(scope="session")
def separable200() -> sb.Dataset:
    return separable_dataset(200)


@pytest.fixture(scope="session")
def boards() -> sb.Dataset:
    return board_dataset()
