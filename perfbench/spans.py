"""Span recording and the arithmetic the traced run reports.

A span is the tuple ``(span_id, name, start, end, parent_id)``.  Ids are
``"<pid>:<serial>"`` strings, so spans recorded in worker processes stay
unique once merged into the calling process's trace.  Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, a clock shared
by every process on the host; spans from different processes therefore sit
on one time axis.

The layer of a span is the part of its name before the first dot
(``estimator.minimize`` belongs to ``estimator``).
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

# Tail percentiles tried from the top, in tenths of a percent.
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Spans and counters of one process, kept in memory until drained."""

    def __init__(self):
        self._adopt_pid()

    def _adopt_pid(self):
        self.pid = os.getpid()
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []  # (span_id, name) of the open spans, innermost last
        self._serial = 0

    def claim_process(self):
        """Start empty in a forked worker, which inherits its parent's spans."""
        if os.getpid() != self.pid:
            self._adopt_pid()

    @contextlib.contextmanager
    def span(self, name: str, parent: str | None = None):
        """Record one span; the parent defaults to the innermost open span."""
        self._serial += 1
        span_id = f"{self.pid}:{self._serial}"
        if parent is None and self._stack:
            parent = self._stack[-1][0]
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def open_span_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def drain(self) -> dict:
        """Hand over everything recorded so far and start empty."""
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        self.spans = []
        self.counts = defaultdict(float)
        return payload

    def absorb(self, payload: dict) -> None:
        """Merge what a worker process drained."""
        self.spans.extend(tuple(s) for s in payload["spans"])
        for name, amount in payload["counts"].items():
            self.counts[name] += amount


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals (children running in parallel workers) count once.
    """
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children[span_id], start, end)
        for span_id, _, start, end, _ in spans
    }


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def nearest_rank(samples, permille: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``permille``/1000 at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1]


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples above it.

    Returns ``(percent, value)``, or ``(None, None)`` when fewer than twenty
    samples leave no percentile with ten beyond it.
    """
    n = len(samples)
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND:
            return permille / 10.0, nearest_rank(samples, permille)
    return None, None
