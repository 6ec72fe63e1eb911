"""Statistics of the ivt_bench suite (python3 standard library only).

run.py reports every metric through these functions, agree.py compares
result files with them, and test_benchstats.py pins their rules.
"""
import math
import random
import statistics


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 for a single value, infinite when a quartile is)."""
    q1, q2, q3 = quartiles(values)
    if math.isinf(q3):
        return math.inf
    return (q3 - q1) / q2 if q2 else 0.0


def resampled_spread(samples, stat, resamples=200):
    """How far a run's value could move from the luck of its samples: the
    spread of `stat` over `resamples` bootstrap resamples of the samples
    (drawn with replacement, as many as there are). The generator is
    seeded, so the same samples always give the same spread."""
    samples = list(samples)
    if len(samples) < 2:
        return 0.0
    rng = random.Random(1)
    return spread([stat(rng.choices(samples, k=len(samples)))
                   for _ in range(resamples)])


def _rank(p, n):
    """1-based nearest rank of percentile p among n values (the epsilon
    keeps 99.9 % of 10000 at rank 9990 despite binary rounding)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p % of
    the values at or below it. A failed request is passed as math.inf, so
    it counts as missing every latency limit."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def highest_supported_percentile(n, candidates=(99.9, 99.0, 95.0, 90.0, 50.0),
                                 beyond=10):
    """The highest candidate percentile with at least `beyond` of n
    samples above it, or None when even the lowest has fewer."""
    for p in candidates:
        if n - _rank(p, n) >= beyond:
            return p
    return None


def late_growth_ms(due_s, late_ms):
    """How much further behind the generator fell during a step: median
    lateness of the step's last third minus that of its first third. A
    server that keeps up leaves it near 0, however late the sends are; a
    growing backlog makes it grow with the step's length."""
    pairs = sorted(zip(due_s, late_ms))
    third = len(pairs) // 3
    if third == 0:
        return 0.0
    first = statistics.median([late for _, late in pairs[:third]])
    last = statistics.median([late for _, late in pairs[-third:]])
    return last - first


def max_sustainable_rate(steps, limit_ms, max_growth_ms=5.0):
    """Highest rate of an ascending series of offered rates that meets the
    serving target: tail latency within the limit, at most 1 % of requests
    failed or refused, and no growing backlog (lateness grew by at most
    max_growth_ms). Only the steps before the first failing one count.
    None when the lowest step already fails."""
    best = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        if (step["tail_ms"] > limit_ms
                or step["failed"] > 0.01 * step["requests"]
                or step["late_growth_ms"] > max_growth_ms):
            break
        best = step["rate"]
    return best
