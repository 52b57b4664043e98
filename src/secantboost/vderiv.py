"""Finite-offset slope calculus.

Everything in this module is built from secant slopes: the loss is only ever
*evaluated*, never differentiated, and zero offsets are rejected everywhere so
no quantity can silently degenerate into a true derivative.  Nested slopes
(one offset per nesting level) play the role that higher derivatives play in
smooth analysis.  One evaluator, V_derivative_expansion, computes the nested
slope of every order, elementwise on floats or arrays; the other entry points
only convert their inputs and result.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MIN_OFFSET",
    "MAX_ORDER",
    "ZeroOffsetError",
    "v_derivative",
    "V_derivative",
    "V_derivative_expansion",
    "secant_slopes",
]

# Offsets this small are indistinguishable from 0.0 at double precision for
# any abscissa of interest; a chord through two machine-identical points is a
# derivative in disguise, which this toolkit forbids.
MIN_OFFSET = 1e-300

# The flat expansion of an order-n nested slope touches 2**n points.
MAX_ORDER = 16


class ZeroOffsetError(ValueError):
    """An offset was zero, denormal-tiny, or non-finite."""


def _checked_offset(v):
    """v as a float, or as a float64 array if it is an array, once every entry
    is finite and at least MIN_OFFSET in magnitude."""
    v = v.astype(np.float64, copy=False) if isinstance(v, np.ndarray) else float(v)
    mag = np.abs(v)
    if not (mag.min(initial=np.inf) >= MIN_OFFSET and mag.max(initial=0.0) < np.inf):
        bad = np.ravel(v)[np.argmin((mag >= MIN_OFFSET) & (mag < np.inf))]
        raise ZeroOffsetError(f"offset must be finite and nonzero, got {float(bad)!r}")
    return v


def v_derivative(F: Callable[[float], float], z: float, v: float) -> float:
    """Secant slope of F through z and z+v: (F(z+v) - F(z)) / v."""
    return float(V_derivative_expansion(F, float(z), [v]))


def V_derivative(F: Callable[[float], float], z: float, V: Sequence[float]) -> float:
    """Nested secant slope of F at z with one offset per nesting level.

    An empty offset collection returns F(z) itself; a singleton returns the
    plain secant slope.  The value does not depend on the order of the offsets.
    """
    return float(V_derivative_expansion(F, float(z), V))


def _recursive_v_derivative(F, z, V) -> float:
    # Pure recursion with no expansion shortcut; kept as an independent
    # reference implementation for the equivalence tests.
    offsets = [_checked_offset(v) for v in V]
    if not offsets:
        return float(F(float(z)))
    vn = offsets[-1]
    rest = offsets[:-1]
    return (
        _recursive_v_derivative(F, z + vn, rest) - _recursive_v_derivative(F, z, rest)
    ) / vn


def V_derivative_expansion(F: Callable, z, V: Sequence):
    """The nested slope as a signed 2**n-point sum, elementwise on floats or arrays.

    Each subset sigma of the offsets contributes (-1)**(n - |sigma|) times the
    loss at z plus the offsets in sigma, added to z from left to right.  The
    terms are summed in itertools.product order, starting from the first term,
    and the sum is divided by the product of the offsets.  Order 1 is therefore
    (-F(z) + F(z+v)) / v, which rounds as (F(z+v) - F(z)) / v.
    """
    offsets = [_checked_offset(v) for v in V]
    n = len(offsets)
    if n > MAX_ORDER:
        raise ValueError(f"nested slope order {n} exceeds cap {MAX_ORDER}")
    total = None
    for picks in itertools.product((False, True), repeat=n):
        point = z
        for v in itertools.compress(offsets, picks):
            point = point + v
        term = F(point) if (n - sum(picks)) % 2 == 0 else -F(point)
        total = term if total is None else total + term
    return total / math.prod(offsets)


def secant_slopes(F, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise secant slopes (F(z+v) - F(z)) / v for array inputs.

    Offsets must all be finite and nonzero; each element rounds as
    v_derivative does on it.
    """
    z, v = np.asarray(z, dtype=np.float64), np.asarray(v, dtype=np.float64)
    return np.asarray(V_derivative_expansion(F, z, [v]), dtype=np.float64)
