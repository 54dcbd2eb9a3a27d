"""Machine-speed probe for scaling measured times.

On a machine whose cores are shared with other machines' work, the same
Python code runs up to 1.6 times slower for stretches of a second to
minutes, and process CPU time slows with it.  A fixed kernel -- a
scalar float recurrence in Python and a short loop of small numpy array
operations, the two kinds of work the program does -- is timed before
and after each measured interval.  The interval's time is reported
scaled by REF_S / (mean kernel time around it): its duration at the
speed where the kernel takes REF_S, about this machine's fast state.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np

REF_S = 6.0e-4
_Z = np.linspace(0.0, 0.9, 256)


def _kernel() -> float:
    f = 1.0
    for n in range(3000, 0, -1):
        f = 2.0 + n * 1.0e-3 - (n + 0.5) * 0.25 / f
    term = np.ones_like(_Z)
    total = np.ones_like(_Z)
    for n in range(60):
        term = term * ((0.5 + n) * (1.5 + n) / ((2.0 + n) * (n + 1.0))) * _Z
        total += term
    return f + float(total[-1])


class Probe(NamedTuple):
    wall: float
    cpu: float


def probe(repeats: int = 3) -> Probe:
    """Median wall and CPU time of `repeats` kernel runs."""
    walls, cpus = [], []
    for _ in range(repeats):
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return Probe(statistics.median(walls), statistics.median(cpus))


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at reference speed, from the kernel times around them."""
    return seconds * REF_S / (0.5 * (before + after))
