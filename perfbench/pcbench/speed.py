"""Machine-speed probe: timings normalized to a reference speed.

The benchmark shares its host with other work, and the host's speed
drifts by up to 1.5x over seconds to minutes.  A fixed probe — a short
interpreter loop, a small matrix product and a 2 MiB copy and checksum,
independent of the program under test — is timed between measured
operations.  Each round's timings are
divided by the round's speed factor (the mean of the probes before and
after it, over :data:`REFERENCE_S`), so every reported time is in
seconds *at the reference speed*: the speed at which one probe takes
exactly :data:`REFERENCE_S`.  A change to the program moves the
normalized times as it moves the raw ones; a change of host speed moves
the probe too and cancels out.
"""

from __future__ import annotations

import time
import zlib

import numpy as np

#: Probe duration that defines the reference speed (a quiet 2-CPU host
#: at 2 GHz runs one probe in about this long).
REFERENCE_S = 0.0018
_REPEATS = 3
_MATRIX = np.random.default_rng(0).normal(size=(96, 96))
#: Larger than a CPU's private caches, so the probe also sees memory
#: bandwidth taken by other work on the host.
_BUFFER = bytes(2 << 20)


def _probe_once():
    started = time.perf_counter()
    total = 0
    table = {}
    for i in range(10000):
        total += i * i
        table[i & 255] = total
    float((_MATRIX @ _MATRIX).sum())
    zlib.crc32(bytes(_BUFFER))
    return time.perf_counter() - started


def probe():
    """Seconds one probe takes now (the fastest of a few repeats)."""
    return min(_probe_once() for _ in range(_REPEATS))


def factor(before, after):
    """Slowdown relative to the reference speed, from two probes."""
    return (before + after) / 2.0 / REFERENCE_S
