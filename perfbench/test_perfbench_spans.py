"""Tests for the benchmark's self-time and tail-percentile arithmetic."""

import pytest

from spans import Tracer, covered_length, nearest_rank, self_times, tail_percentile


def test_covered_length_merges_overlaps_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)]
    assert covered_length(intervals, 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length(intervals, 1.5, 5.5) == pytest.approx(2.0)
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", "cli.main", 0.0, 10.0, None),
        ("a", "harness.sweep", 1.0, 9.0, "root"),
        ("b", "estimator.estimate", 2.0, 5.0, "a"),
        ("c", "metrics.call", 6.0, 7.0, "a"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"root": 2.0, "a": 4.0, "b": 3.0, "c": 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two workers run tasks under one map span at the same time
    spans = [
        ("map", "harness.map", 0.0, 10.0, None),
        ("w1", "harness.task", 1.0, 6.0, "map"),
        ("w2", "harness.task", 2.0, 8.0, "map"),
    ]
    selfs = self_times(spans)
    assert selfs["map"] == pytest.approx(10.0 - 7.0)
    overlap = (5.0 + 6.0) - covered_length([(1.0, 6.0), (2.0, 8.0)], 0.0, 10.0)
    assert sum(selfs.values()) - overlap == pytest.approx(10.0)


def test_self_time_ignores_child_time_outside_the_parent():
    spans = [("p", "harness.map", 0.0, 4.0, None), ("c", "harness.task", 3.0, 6.0, "p")]
    assert self_times(spans)["p"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_hands_over_worker_payloads():
    tracer = Tracer()
    with tracer.span("cli.main") as root:
        with tracer.span("estimator.estimate"):
            assert tracer.open_span_name() == "estimator.estimate"
        tracer.count("estimator.estimates")
    parents = {name: parent for _, name, _, _, parent in tracer.spans}
    assert parents == {"estimator.estimate": root, "cli.main": None}
    payload = tracer.drain()
    assert tracer.spans == [] and not tracer.counts
    other = Tracer()
    other.absorb(payload)
    other.absorb(payload)
    assert len(other.spans) == 4 and other.counts["estimator.estimates"] == 2


@pytest.mark.parametrize(
    "n, expected_pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_pct):
    samples = list(range(1, n + 1))
    pct, value = tail_percentile(samples)
    assert pct == expected_pct
    if pct is not None:
        assert sum(s > value for s in samples) >= 10
        assert value == nearest_rank(samples, int(pct * 10))


def test_nearest_rank_percentiles():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 500) == 3.0
    assert nearest_rank(samples, 1000) == 5.0
    assert nearest_rank(samples, 0) == 1.0
    assert nearest_rank(list(range(1, 101)), 900) == 90
    with pytest.raises(ValueError):
        nearest_rank([], 500)
