"""Statistics helpers of the repository benchmark (see perfbench/README.md).

Timings are reported as a median and a tail percentile, stated with their
sample count. The tail rule: report the highest percentile that still has at
least ten samples beyond it. Percentiles use the nearest-rank definition, so
every reported value is a measured sample.
"""

import math
import statistics

# Candidate percentiles for the tail rule, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n - 1e-9))


def tail_percentile(n):
    """Highest candidate percentile with at least MIN_BEYOND samples beyond
    it among n samples, or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail(values):
    """(percentile, value, sample count) under the tail rule; the percentile
    and value are None when there are too few samples."""
    p = tail_percentile(len(values))
    return p, (percentile(values, p) if p is not None else None), len(values)


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Distance between the first and third quartile, as a share of the
    median: the run-to-run spread a metric's bound is compared against."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        raise ValueError("relative spread of values whose median is 0")
    return (q3 - q1) / abs(q2)


def failed_ratio(failed, attempted):
    """Failed over attempted; both whole numbers, attempted at least 1."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempt")
    if failed < 0 or failed > attempted:
        raise ValueError(f"failed {failed} outside [0, {attempted}]")
    return failed / attempted


def relative_change(new, base):
    """(new - base) / base, in percent."""
    if base == 0:
        raise ValueError("relative change against 0")
    return (new - base) / base * 100.0
