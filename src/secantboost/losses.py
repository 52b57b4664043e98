"""Margin losses queried strictly by value, plus their declared metadata.

A loss here is just a vectorized callable together with the facts the rest of
the toolkit is allowed to rely on: convexity, a smoothness constant when one
is known, and the declared jump set for discontinuous losses.  Nothing ever
asks a loss for a derivative.
"""

from __future__ import annotations

import csv
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "LossSpec",
    "make_builtin",
    "register_loss",
    "registered_names",
    "table_loss",
    "load_table_loss",
    "empirical_loss",
    "inject_label_noise",
    "LOGISTIC_BETA",
    "SQUARE_BETA",
]

# Largest secant curvature of the logistic loss.  The analytic second
# derivative tops out at 1/4 at the origin and secant curvatures can only
# average it; the dense numeric maximization in the test suite re-derives
# this constant to 1e-5.  It also bounds clipped_logistic from one side:
# logistic - z^2/8 and cap - z^2/8 are concave, and so is their minimum.
LOGISTIC_BETA = 0.25

# (1 - z)^2 has constant curvature 2 at every scale.
SQUARE_BETA = 2.0


@dataclass(frozen=True)
class LossSpec:
    """A loss function plus the metadata the boosting stack consumes.

    evaluate receives float64 arrays and must be elementwise and finite on
    all of R.  Calling the spec is the one adapter: it passes every query to
    evaluate as a float64 array (a 0-d one for a scalar) and returns a float
    for a scalar query and a float64 array otherwise, so the scalar and array
    paths share evaluate's arithmetic.  It checks every value: a NaN or inf
    raises ConfigError naming its abscissa.
    A declared smoothness_beta (finite, > 0) promises that every secant
    curvature is <= beta: the smoothness route relies on it, and for a convex
    loss so does the chord-gap certificate.  A declared curvature_bound
    (finite, > 0) promises only that F - beta*z**2/2 is concave, which a
    non-convex loss can meet; it certifies chord gaps and leaves the route
    alone.  A declared minorant is a loss G <= F on all of R whose own
    curvature certifies (curvature_bound, or convex with smoothness_beta);
    any other minorant raises ConfigError.  It certifies F's chord gaps
    when F's own curvature does not: spring declares logistic, which lies
    below it.  A certified chord-gap decision trusts what it reads between
    the points where it reads: with F's own curvature, the bound between
    both chord endpoints plus, off the chord's own segment, a 64-subinterval
    grid of F; with a minorant, F at both chord endpoints, G <= F everywhere
    and G's bound between the points of a 64-subinterval grid of G.
    Decisions for losses that declare none of these (a non-convex loss with
    smoothness_beta alone included) are grid estimates.
    discontinuities lists (abscissa, jump magnitude) pairs for declared jump
    points; continuous losses leave it empty.
    """

    name: str
    evaluate: Callable
    is_convex: bool
    smoothness_beta: float | None = None
    discontinuities: tuple[tuple[float, float], ...] = ()
    params: Mapping[str, float] = field(default_factory=dict)
    curvature_bound: float | None = None
    minorant: LossSpec | None = None

    def __post_init__(self):
        for key in ("smoothness_beta", "curvature_bound"):
            beta = getattr(self, key)
            if beta is not None and not 0.0 < beta < np.inf:
                raise ConfigError(f"loss {self.name!r}: need 0 < {key} < inf, got {beta}")
        G = self.minorant
        if G is not None and not (isinstance(G, LossSpec) and _curvature(G) is not None):
            raise ConfigError(
                f"loss {self.name!r}: a minorant must be a LossSpec declaring curvature_bound, "
                f"or convex with smoothness_beta, got {getattr(G, 'name', G)!r}"
            )

    def __call__(self, z):
        z = np.asarray(z, dtype=np.float64)
        out = self.evaluate(z)
        if z.ndim == 0:
            out = float(out)
            if math.isfinite(out):
                return out
        else:
            out = np.asarray(out, dtype=np.float64)
            if np.isfinite(out).all():
                return out
        values = np.ravel(out)
        i = int(np.argmin(np.isfinite(values)))
        raise ConfigError(
            f"loss {self.name!r} returned {float(values[i])!r} at z={float(np.ravel(z)[i])!r}; "
            "a loss must be finite on all of R"
        )

    @property
    def disc(self) -> float:
        """Largest declared jump magnitude (0.0 when continuous)."""
        if not self.discontinuities:
            return 0.0
        return max(j for _, j in self.discontinuities)


def _curvature(F: LossSpec) -> float | None:
    """The beta with F - beta*z**2/2 concave that F itself declares, or None.

    A loss may declare it as curvature_bound; a convex loss's smoothness_beta
    bounds its secant curvatures from above, which is the same promise.
    """
    if F.curvature_bound is not None:
        return F.curvature_bound
    return F.smoothness_beta if F.is_convex else None


def _logistic(z):
    return np.logaddexp(0.0, -z)


def _exponential(z):
    # Finite only for z >= -709.78: below that np.exp overflows to inf, so a
    # run whose margins reach that far stops with ConfigError (CLI exit 2).
    return np.exp(-z)


def _square(z):
    return (1.0 - z) ** 2


def _hinge(z):
    return np.maximum(0.0, 1.0 - z)


def _zero_one(z):
    return np.where(z <= 0.0, 1.0, 0.0)


def _clipped_logistic(q: float = -2.0) -> LossSpec:
    q = float(q)
    cap = float(np.logaddexp(0.0, -q))

    def clipped(z):
        return np.minimum(np.logaddexp(0.0, -z), cap)

    return LossSpec(
        "clipped_logistic", clipped, is_convex=False, params={"q": q},
        curvature_bound=LOGISTIC_BETA,
    )


def _spring(Q: float = 1.0) -> LossSpec:
    Q = float(Q)
    if Q <= 0:
        raise ConfigError(f"spring loss needs Q > 0, got {Q}")

    # Logistic plus a train of circular-arc bumps of period 1/Q.  The bump
    # argument u = Q z - [Q z] (nearest-integer bracket, ties to even) lives
    # in [-1/2, 1/2], so 1 - 4 u^2 >= 0 up to rounding at the seams.  The
    # square root is at most 1, so the computed bump is >= +0 and adding it
    # to the computed logistic value cannot go below it: logistic is spring's
    # minorant on computed values too.
    def spring(z):
        qz = Q * z
        u = qz - np.rint(qz)
        bump = (1.0 - np.sqrt(np.maximum(0.0, 1.0 - 4.0 * u * u))) / Q
        return np.logaddexp(0.0, -z) + bump

    return LossSpec(
        "spring", spring, is_convex=False, params={"Q": Q}, minorant=make_builtin("logistic")
    )


# Builtin loss factories: name -> callable(**params) -> LossSpec.  A factory's
# keyword parameters are the only parameters its loss takes.
_BUILTINS: dict[str, Callable[..., LossSpec]] = {
    "exponential": lambda: LossSpec("exponential", _exponential, is_convex=True),
    "logistic": lambda: LossSpec(
        "logistic", _logistic, is_convex=True, smoothness_beta=LOGISTIC_BETA
    ),
    "square": lambda: LossSpec("square", _square, is_convex=True, smoothness_beta=SQUARE_BETA),
    "hinge": lambda: LossSpec("hinge", _hinge, is_convex=True),
    "zero_one": lambda: LossSpec(
        "zero_one", _zero_one, is_convex=False, discontinuities=((0.0, 1.0),)
    ),
    "clipped_logistic": _clipped_logistic,
    "spring": _spring,
}

BUILTIN_NAMES = tuple(_BUILTINS)

# User-registered loss factories: name -> callable(**params) -> LossSpec.
_REGISTRY: dict[str, Callable[..., LossSpec]] = {}


def register_loss(name: str, factory: Callable[..., LossSpec]) -> None:
    """Register an in-code loss factory resolvable by make_builtin."""
    if name in BUILTIN_NAMES:
        raise ConfigError(f"cannot shadow builtin loss {name!r}")
    _REGISTRY[name] = factory


def registered_names() -> tuple[str, ...]:
    return BUILTIN_NAMES + tuple(sorted(_REGISTRY))


def make_builtin(name: str, **params) -> LossSpec:
    """Resolve a loss by name: builtins first, then registered factories."""
    factory = _BUILTINS.get(name)
    if factory is None:
        if name in _REGISTRY:
            return _REGISTRY[name](**params)
        raise ConfigError(f"unknown loss {name!r}")
    unknown = params.keys() - inspect.signature(factory).parameters.keys()
    if unknown:
        raise ConfigError(f"loss {name!r} does not take parameters {sorted(unknown)}")
    return factory(**params)


def table_loss(name: str, zs: Sequence[float], values: Sequence[float]) -> LossSpec:
    """Piecewise-linear loss through the given (z, F(z)) knots.

    Outside the knot range the end values extend as constants.  Tables are
    continuous by construction, so no jump set is declared; convexity is not
    assumed.
    """
    zs = np.asarray(zs, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if zs.ndim != 1 or zs.shape != values.shape or zs.size < 2:
        raise ConfigError("table loss needs two matching 1-d columns with >= 2 rows")
    order = np.argsort(zs, kind="stable")
    zs = zs[order]
    values = values[order]
    if np.any(np.diff(zs) <= 0):
        raise ConfigError("table loss abscissae must be distinct")
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(values))):
        raise ConfigError("table loss entries must be finite")

    def interp(z):
        return np.interp(z, zs, values)

    return LossSpec(name, interp, is_convex=False)


def load_table_loss(path: str, name: str | None = None) -> LossSpec:
    """Read a two-column CSV (z, value) into a piecewise-linear loss.

    Blank lines are skipped, and the first other row is a header unless its
    first cell is a number.  An error names the file line its row ends on.
    """
    zs: list[float] = []
    vals: list[float] = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if rows and not _is_number(rows[0][1][0]):
        del rows[0]  # header
    for line, row in rows:
        if len(row) != 2:
            raise ConfigError(f"{path}:{line}: expected two columns, got {len(row)}")
        try:
            z, value = float(row[0]), float(row[1])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line}: {exc}") from None
        if not (math.isfinite(z) and math.isfinite(value)):
            raise ConfigError(f"{path}:{line}: table loss entries must be finite, got {row}")
        zs.append(z)
        vals.append(value)
    return table_loss(name or "table", zs, vals)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def empirical_loss(F: LossSpec, S, H) -> float:
    """Mean loss of ensemble H on dataset S: average of F(y_i * H(x_i))."""
    margins = np.asarray(S.labels, dtype=np.float64) * H.predict_dataset(S)
    return float(np.mean(F(margins)))


def inject_label_noise(S, eta: float, seed: int):
    """Flip each label independently with probability eta (returns a copy)."""
    if not 0.0 <= eta < 1.0:
        raise ConfigError(f"noise rate must be in [0, 1), got {eta}")
    rng = np.random.default_rng(seed)
    flips = rng.random(S.m) < eta
    labels = np.where(flips, -S.labels, S.labels)
    return S.with_labels(labels)
