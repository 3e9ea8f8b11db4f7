"""Order statistics used by the benchmark's metrics."""

import math

MIN_BEYOND = 10


def nearest_rank(values, pct):
    """The pct-th percentile by the nearest-rank rule (a sample value)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, pct):
    """How many of n samples lie above the nearest-rank pct-th percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(values, wanted=95, min_beyond=MIN_BEYOND):
    """The highest percentile, at most `wanted`, with at least `min_beyond`
    samples above it: (percentile, value). A tail percentile resting on
    fewer samples is noise, so with too few samples the rule reports a
    lower percentile instead of pretending."""
    n = len(values)
    for pct in range(wanted, 0, -1):
        if beyond(n, pct) >= min_beyond:
            return pct, nearest_rank(values, pct)
    raise ValueError(f"{n} samples: no percentile has {min_beyond} beyond it")
