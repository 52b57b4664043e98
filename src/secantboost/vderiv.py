"""Finite-offset slope calculus.

Everything in this module is built from secant slopes: the loss is only ever
*evaluated*, never differentiated, and zero offsets are rejected everywhere so
no quantity can silently degenerate into a true derivative.  Nested slopes
(one offset per nesting level) play the role that higher derivatives play in
smooth analysis.
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


def _checked_offset(v: float) -> float:
    v = float(v)
    if not math.isfinite(v) or abs(v) < MIN_OFFSET:
        raise ZeroOffsetError(f"offset must be finite and nonzero, got {v!r}")
    return v


def v_derivative(F: Callable[[float], float], z: float, v: float) -> float:
    """Secant slope of F through z and z+v: (F(z+v) - F(z)) / v."""
    v = _checked_offset(v)
    z = float(z)
    return (float(F(z + v)) - float(F(z))) / v


def V_derivative(F: Callable[[float], float], z: float, V: Sequence[float]) -> float:
    """Nested secant slope of F at z with one offset per nesting level.

    An empty offset collection returns F(z) itself; a singleton returns the
    plain secant slope.  Higher orders peel the last offset and difference the
    lower-order slope across it.  The value does not depend on the order of
    the offsets.  Orders 1 and 2 are evaluated through the closed-form
    expansion (same value, fewer loss queries and less cancellation).
    """
    offsets = [_checked_offset(v) for v in V]
    n = len(offsets)
    if n > MAX_ORDER:
        raise ValueError(f"nested slope order {n} exceeds cap {MAX_ORDER}")
    if n == 0:
        return float(F(float(z)))
    if n <= 2:
        return V_derivative_expansion(F, z, offsets)
    vn = offsets[-1]
    rest = offsets[:-1]
    return (V_derivative(F, z + vn, rest) - V_derivative(F, z, rest)) / vn


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


def V_derivative_expansion(
    F: Callable[[float], float], z: float, V: Sequence[float]
) -> float:
    """Closed-form expansion of the nested slope as a signed 2**n-point sum.

    Each subset sigma of the offsets contributes (-1)**(n - |sigma|) times the
    loss at z plus the subset sum, and the whole thing is divided by the
    product of the offsets.
    """
    offsets = [_checked_offset(v) for v in V]
    n = len(offsets)
    if n > MAX_ORDER:
        raise ValueError(f"nested slope order {n} exceeds cap {MAX_ORDER}")
    z = float(z)
    if n == 0:
        return float(F(z))
    total = 0.0
    for picks in itertools.product((0, 1), repeat=n):
        point = z + sum(v for v, b in zip(offsets, picks) if b)
        sign = 1.0 if (n - sum(picks)) % 2 == 0 else -1.0
        total += sign * float(F(point))
    denom = 1.0
    for v in offsets:
        denom *= v
    return total / denom


def secant_slopes(F, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise secant slopes (F(z+v) - F(z)) / v for array inputs.

    Offsets must all be finite and nonzero; the arithmetic is the same as
    v_derivative applied per element (bit-for-bit, assuming F is a numpy
    ufunc-style callable).
    """
    z = np.asarray(z, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(~np.isfinite(v)) or np.any(np.abs(v) < MIN_OFFSET):
        raise ZeroOffsetError("all offsets must be finite and nonzero")
    return (np.asarray(F(z + v), dtype=np.float64) - np.asarray(F(z), dtype=np.float64)) / v
