"""The machine's speed right now, read from fixed work timed beside each sample.

On a shared 2-vCPU Intel Xeon VM (2.0 GHz), machine speed drifts by tens
of percent within minutes, for the interpreter, small numpy calls and
object churn alike: ten runs of the same code spread by 28-33 % in
`report` wall time.  ``calibrate()`` times a fixed mix of those three kinds of work that
citescale never runs, so no change to the package can move it.  A wall time
``t`` measured between two calibrations ``c0`` and ``c1`` reads, in seconds
at the machine speed of ``REFERENCE_S``::

    t * REFERENCE_S / ((c0 + c1) / 2)

The speed also jitters by about 10 % from one fifth of a second to the next,
so a calibration repeats its unit of work over a window of half a second.
Over 29 `deep` reports, rescaling by 0.2-second windows left a spread of
12 % between reports and by half-second windows 8 %, against 14 % for the
raw wall times of the same reports.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# About the median unit time on a 2-vCPU Intel Xeon VM (2.0 GHz) with Python 3.11.7
# and numpy 2.4.6.  It only sets the scale of the normalized times.
REFERENCE_S = 0.1

# Seconds each calibration repeats the unit for, beside a report.
WINDOW_S = 0.5

SPIN_ITERATIONS = 300_000
NUMPY_ROUNDS = 750
OBJECT_RECORDS = 20_000


def _unit(arrays: list) -> None:
    """A fixed mix of pure-Python, small-array numpy and dict/list/sort work,
    shaped like the report's own inner loops."""
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i * i
    for k in range(NUMPY_ROUNDS):
        a, b = arrays[k % 64], arrays[(k * 7) % 64]
        grid = np.union1d(a, b)
        gap = np.searchsorted(a, grid, side="right") / a.size
        gap -= np.searchsorted(b, grid, side="right") / b.size
        acc += float(np.abs(gap).max()) + float((np.expm1(0.3 * np.log1p(a)) / 0.3).var())
    groups: dict = {}
    for i in range(OBJECT_RECORDS):
        groups.setdefault((f"c{i % 97}", i % 3), []).append((i * 2654435761 % 1000, str(i)))
    for records in groups.values():
        records.sort()


def calibrate(seconds: float = WINDOW_S) -> float:
    """Mean seconds of one unit, over as many units as fill ``seconds``
    (at least one)."""
    rng = np.random.default_rng(0)
    arrays = [np.sort(rng.integers(0, 50, 60)).astype(np.float64) for _ in range(64)]
    # The collector's passes scale with every live object in the process,
    # which is the program's state, not the machine's speed.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        units = 0
        start = time.perf_counter()
        while True:
            _unit(arrays)
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / units
    finally:
        if gc_was_enabled:
            gc.enable()


def normalized(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in seconds at reference speed, from the calibrations
    taken just before and just after it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)
