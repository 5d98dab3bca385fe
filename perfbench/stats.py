"""Small statistics helpers shared by the benchmark and its tests."""
from __future__ import annotations

import math
import statistics

#: Percentiles considered when reporting the tail of a timing.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p percent
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def top_percentile(n: int):
    """Highest percentile of the ladder with at least MIN_SAMPLES_BEYOND of
    n samples beyond it, or None when even the median has too few."""
    best = None
    for p in PERCENTILE_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_SAMPLES_BEYOND - 1e-9:
            best = p
    return best


def timing_summary(values) -> dict:
    """Median, the highest supported percentile and the sample count."""
    values = list(values)
    out = {"n": len(values)}
    if values:
        out["median"] = median(values)
    p = top_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children (clipped to the parent's interval).

    spans: sequence of (start, end, parent_index) with parent_index -1 for
    a root span.
    """
    children: dict[int, list] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(i, []) if min(e, end) > max(s, start)]
        out.append((end - start) - union_length(clipped))
    return out


def pooled_residual(groups) -> tuple[float, float, int]:
    """Pool Monte Carlo groups measured against per-group targets.

    groups: iterable of (mean, stderr, n, target) where stderr uses the
    sample standard deviation (ddof = 1).  Returns the mean residual
    (sample - target) over all samples, its standard error and the total
    sample count.
    """
    total = total_sq = 0.0
    count = 0
    for mean, stderr, n, target in groups:
        if n < 1:
            continue
        var = stderr ** 2 * n
        sum_x = mean * n
        sum_xx = (n - 1) * var + n * mean ** 2
        total += sum_x - n * target
        total_sq += sum_xx - 2.0 * target * sum_x + n * target ** 2
        count += n
    if count < 2:
        raise ValueError("need at least two samples to pool")
    mean = total / count
    var = max(total_sq / count - mean ** 2, 0.0) * count / (count - 1)
    return mean, math.sqrt(var / count), count
