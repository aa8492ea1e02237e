"""Machine speed, measured beside each timing so that timings can be scaled to one speed.

The 2-core VM this benchmark was built on changes speed by up to 1.8x
within seconds: an operation's thread CPU time and its wall time move
together, so the change is not steal time the guest could subtract. It
moves every timing of a run, and whole runs, the same way. Each timed
operation therefore sits between two runs of ``calibrate()``, a fixed
piece of interpreter and BLAS work, and its time is reported at reference
speed:

    seconds * REFERENCE_S / (mean of the calibrations just before and after)

REFERENCE_S is the calibration's median time on that machine in a fast
phase, so scaled times read as seconds there, then. The calibration is
benchmark code and never calls defosc, so a change to defosc moves the
scaled times as it moves the real ones. Result files keep the wall-clock
figures as well.
"""

from __future__ import annotations

import time

import numpy as np

# median calibrate() time on a 2-core VM (CPython 3.11, numpy 2.4, OpenBLAS)
# in one of its fast phases
REFERENCE_S = 2.0e-3

# fixed entries in [0, 1); numpy.random is not imported, to keep it out of peak_rss_mb
_MATRIX = (np.arange(96 * 96, dtype=float).reshape(96, 96) % 97) / 97.0


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter arithmetic, allocation and
    number formatting, and small matrix products: the kinds of work
    defosc's operations do."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(8000):
        acc += (i * 0.5) % 3.0
    rows = {}
    for i in range(1500):
        rows[i] = ["%.12g" % (i * 0.37), [i, i + 1.5]]
    "\n".join(row[0] for row in rows.values())
    for _ in range(4):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


def scale(seconds: float, calibration: float) -> float:
    """seconds measured at a speed where calibrate() took `calibration`, at reference speed."""
    return seconds * REFERENCE_S / calibration
