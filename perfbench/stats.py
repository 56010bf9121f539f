"""Order statistics, ratios and failure accounting of the benchmark.

Everything here is a pure function of its samples, so the tests drive it
with hand-made numbers; the only clock lives in :func:`timed`, and it is
injectable.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, List, Sequence, Tuple

Clock = Callable[[], float]

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


class NotEnoughSamples(ValueError):
    """A percentile was asked of too few samples to have a real tail."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float, min_tail: int = MIN_TAIL) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples beyond it.

    Refuses (:class:`NotEnoughSamples`) unless at least ``min_tail`` samples
    lie above the reported rank, so a "p99" of 200 samples, which would be
    the second-largest value, is never printed.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < min_tail:
        raise NotEnoughSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; need {min_tail}"
        )
    return float(sorted(values)[rank - 1]), beyond


def samples_for_percentile(q: float, min_tail: int = MIN_TAIL) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    n = min_tail + 1
    while n - max(1, math.ceil(q / 100.0 * n)) < min_tail:
        n += 1
    return n


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``cut`` share of samples.

    Unlike the median it moves smoothly when the samples come from a mix of
    two levels (a host's fast and slow spells) whose shares change."""
    if not values:
        raise ValueError("trimmed mean of no samples")
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)


def paired_ratio(reference: Sequence[float], candidate: Sequence[float]) -> float:
    """Median over rounds of ``reference[i] / candidate[i]``: each pair was
    timed back to back, so a host spell that slows one slows both.  Above 1
    means faster than the reference, below 1 slower, reported as is."""
    if len(reference) != len(candidate):
        raise ValueError("paired samples differ in length")
    return median([r / c for r, c in zip(reference, candidate)])


def quartile_spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def timed(fn: Callable[[], object], clock: Clock = time.perf_counter) -> Tuple[float, object]:
    """``(seconds, result)`` of one call, the result consumed inside the window."""
    start = clock()
    result = fn()
    return clock() - start, result


class Tally:
    """Attempted and failed operations; a failure keeps its message."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
