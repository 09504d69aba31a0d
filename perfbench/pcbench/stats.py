"""Percentiles used by the benchmark's reports."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples beyond
#: it, so p90 needs 100 samples and p50 needs 20.
MIN_TAIL_SAMPLES = 10


def percentile(values, q):
    """The ``q``-th percentile (0 < q < 100), linearly interpolated.

    Raises ValueError when fewer than :data:`MIN_TAIL_SAMPLES` samples
    lie beyond the percentile, so a tail figure is never read off a
    handful of points.
    """
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    values = sorted(values)
    n = len(values)
    tail = n * (100 - q) / 100.0
    if tail + 1e-9 < MIN_TAIL_SAMPLES:
        need = math.ceil(MIN_TAIL_SAMPLES * 100.0 / (100 - q) - 1e-9)
        raise ValueError(
            "p%g needs at least %d samples, got %d" % (q, need, n)
        )
    rank = (n - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, n - 1)
    return values[low] + (values[high] - values[low]) * (rank - low)
