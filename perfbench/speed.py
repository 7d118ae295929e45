"""Machine-speed probe: a fixed CPU task timed between operations.

On a shared machine the same operation can run 1.5 times slower for tens
of seconds while other tenants load the cores, and a whole run can land
in such a period.  A fixed task that does not touch onebitcs slows down
by nearly the same factor (within a few percent, measured on a 2-vCPU
virtual machine for the decoder, a pure-Python loop and numpy rank-1
updates).  So the benchmark times this probe every PROBE_INTERVAL_S
between operations and reports its time metrics at the reference speed:
raw time multiplied by PROBE_REFERENCE_MS over the run's median probe
time.  Raw times are printed next to them.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's duration at the reference speed: its typical median on a
# 2-vCPU virtual machine (Python 3.11, numpy 2.4, one BLAS thread).
# Normalized times are in milliseconds at that speed.
PROBE_REFERENCE_MS = 2.8
PROBE_INTERVAL_S = 0.25

_TABLEAU = np.random.default_rng(0).standard_normal((60, 200))


def probe() -> float:
    """Seconds taken by one run of the fixed task: rank-1 updates of a
    small tableau interleaved with interpreter work, as in a small simplex."""
    t0 = time.perf_counter()
    t = _TABLEAU.copy()
    acc = 0
    for i in range(60):
        t -= np.outer(t[:, i], t[i]) * 1e-3
        for j in range(150):
            acc += j * i
    return time.perf_counter() - t0
