"""The benchmark's own statistics and span arithmetic, under a fake clock."""

from __future__ import annotations

import pytest

from perfbench.spans import Span, Tracer, covered, self_times
from perfbench.stats import (
    NotEnoughSamples,
    Tally,
    geomean,
    median,
    paired_ratio,
    percentile,
    quartile_spread,
    samples_for_percentile,
    timed,
    trimmed_mean,
)


class FakeClock:
    """Reads a scripted time; ``advance`` moves it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_median_odd_even_and_empty():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 1001))  # 1..1000
    p99, beyond = percentile(values, 99)
    assert (p99, beyond) == (990.0, 10)
    with pytest.raises(NotEnoughSamples):
        percentile(values[:999], 99)  # rank 990 of 999 leaves only 9 beyond
    assert samples_for_percentile(99) == 1000
    assert samples_for_percentile(50) == 20
    assert percentile(list(range(20)), 50) == (9.0, 10)


def test_geometric_mean_of_interleaved_ratios():
    clock = FakeClock()
    # Two cases timed interleaved: reference then candidate, three rounds.
    script = {"a": [(2.0, 1.0), (2.2, 1.0), (1.8, 1.1)], "b": [(1.0, 2.0), (1.0, 2.0), (1.2, 1.9)]}
    pairs = {}
    for case, rounds in script.items():
        ref, cand = [], []
        for ref_s, cand_s in rounds:
            seconds, _ = timed(lambda: clock.advance(ref_s), clock)
            ref.append(seconds)
            seconds, _ = timed(lambda: clock.advance(cand_s), clock)
            cand.append(seconds)
        pairs[case] = (ref, cand)
    assert paired_ratio(*pairs["a"]) == pytest.approx(2.0)
    assert paired_ratio(*pairs["b"]) == pytest.approx(0.5)
    # A 2x win on one case and a 2x loss on the other cancel exactly.
    assert geomean([paired_ratio(*pair) for pair in pairs.values()]) == pytest.approx(1.0)
    assert geomean([4.0, 1.0]) == pytest.approx(2.0)
    # A slow spell (round 2) slows both sides of its pair and cancels.
    assert paired_ratio([2.0, 4.0, 2.2], [1.0, 2.0, 1.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        paired_ratio([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_trimmed_mean_drops_both_tails_and_follows_a_mix_smoothly():
    assert trimmed_mean([1.0] * 8 + [100.0, -100.0], cut=0.1) == 1.0
    with pytest.raises(ValueError):
        trimmed_mean([])
    # Fast (1.0) and slow (2.0) spells: the median jumps from one level to
    # the other as the slow share passes one half, the trimmed mean does not.
    just_under = [1.0] * 11 + [2.0] * 9
    just_over = [1.0] * 9 + [2.0] * 11
    assert median(just_over) - median(just_under) == 1.0
    assert trimmed_mean(just_over) - trimmed_mean(just_under) == pytest.approx(0.125)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert tally.error_rate == 0.0
    assert tally.check(True, "fine")
    assert not tally.check(False, "wrong output")
    tally.fail("raised")
    other = Tally()
    other.check(True, "fine")
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == 0.5
    assert tally.failures == ["wrong output", "raised"]


def test_self_time_subtracts_children_and_their_overlap_once():
    spans = [
        Span("root", 0.0, 10.0, None, None, 0),
        Span("a", 1.0, 4.0, 0, None, 1),
        Span("b", 3.0, 6.0, 0, None, 2),  # overlaps a on [3, 4]
        Span("c", 9.0, 12.0, 0, None, 3),  # runs past the parent's end
        Span("leaf", 1.5, 2.0, 1, None, 4),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)]) == pytest.approx(6.0)


class _Layer:
    def work(self, clock: FakeClock, seconds: float, inner=None):
        clock.advance(seconds)
        if inner is not None:
            inner()
        return seconds


def test_tracer_wraps_nests_and_restores():
    clock = FakeClock()
    tracer = Tracer(clock)
    layer = _Layer()
    original = _Layer.work
    tracer.wrap(_Layer, "work", "layer.work")
    tracer.tag = "case-1"
    assert layer.work(clock, 2.0, inner=lambda: layer.work(clock, 0.5)) == 2.0
    tracer.restore()
    assert _Layer.work is original
    outer, inner = tracer.spans
    assert (outer.name, outer.duration, outer.parent, outer.tag) == ("layer.work", 2.5, None, "case-1")
    assert (inner.duration, inner.parent) == (0.5, outer.index)
    assert self_times(tracer.spans)[outer.index] == pytest.approx(2.0)
    layer.work(clock, 1.0)
    assert len(tracer.spans) == 2  # unwrapped again: no new span
