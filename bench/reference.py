"""The reference loop: a fixed piece of work that measures the machine's speed.

On a shared host the speed of a core swings by half or more for tens of
seconds at a time, and every timing swings with it.  The benchmark times
this loop right before and right after each workload run and each set-up,
and reports their times at reference speed: wall seconds x REFERENCE_S /
the loop's seconds around them.  The loop mixes the kinds of work the
library does (element-wise ufuncs on 200-element arrays from a Python loop,
now and then a sort of 3200 values and a string comparison over an object
array, scalar Python arithmetic) so that it slows down with the library; it
never calls secantboost, so a change to the library moves the ratio and
nothing else does.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_SMALL = np.linspace(-3.0, 3.0, 200)
_LARGE = np.random.default_rng(0).normal(size=3200)
_WORDS = np.array(["x", "o", "b"] * 140, dtype=object)
ROUNDS = 800
# The loop's time on an idle core of the machine the benchmark was built on
# (2.1 GHz Xeon): times at reference speed are close to wall seconds there.
REFERENCE_S = 0.020


def reference_seconds() -> float:
    """Wall seconds of one pass of the loop (about 25 ms on a 2.1 GHz Xeon core)."""
    start = perf_counter()
    acc = 0.0
    for i in range(ROUNDS):
        z = _SMALL * (1.0 + i * 1e-6)
        acc += float(np.sum(np.log1p(np.exp(-z))) + np.max(np.abs(z - 0.5)))
        if i % 10 == 0:
            b = _LARGE * (1.0 + i * 1e-6)
            acc += float(np.cumsum(b[np.argsort(b)])[-1])
            acc += float(np.sum(_WORDS.astype(str) == "x"))
        for k in range(12):
            acc += math.sqrt(max(0.0, (k + i) * 0.5 * (i % 7)))
    elapsed = perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference loop produced a non-finite sum")
    return elapsed
