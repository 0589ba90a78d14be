"""Host-speed index: a fixed piece of interpreter-bound work, timed.

The benchmark runs on a few cores of a shared host whose speed for
interpreter-bound code drifts by a quarter or more within minutes, as other
tenants come and go.  Each child times this work just before and just after
its `cli.main` call; the mean of the two readings is the host's speed at the
time, and run.py scales the child's timings by it.  The work is independent
of amalgam, so a change to the program does not move it.

The two parts mirror what dominates the interpreter-bound workloads: a
Python loop over dict entries (the per-region loops of the harness) and a
bisection on a small array (the Luxemburg bisections of orlicz).
"""

from __future__ import annotations

import time

import numpy as np

DICT_STEPS = 700_000
BISECTIONS = 16_000
_SAMPLE = np.random.default_rng(12345).random(256)


def _dict_loop(steps: int) -> int:
    counts = {}
    for i in range(steps):
        key = i & 1023
        counts[key] = counts.get(key, 0) + i * 3 % 7
    return len(counts)


def _small_bisections(steps: int) -> float:
    lo, hi = 0.05, 50.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.mean(np.expm1(_SAMPLE / mid)) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            lo, hi = 0.05, 50.0
    return lo


def index_s() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _dict_loop(DICT_STEPS)
    _small_bisections(BISECTIONS)
    return time.perf_counter() - start


def warm_up() -> None:
    """Run a tenth of the work untimed, so the first reading pays no first-call costs."""
    _dict_loop(DICT_STEPS // 10)
    _small_bisections(BISECTIONS // 10)
