"""Spans recorded around calls into the package's layers, and their self times.

A span is ``{"id", "parent", "name", "start", "end"}`` with times from
``time.monotonic()``, which is one clock for every process on the machine, so
the benchmark can line up spans from its child processes with its own
timestamps.  Spans are opened from one thread only.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Keeps spans in memory; the owner writes them out at the end."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.monotonic(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] that the intervals cover."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Per span name, the summed duration minus what child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["name"]] += dur - _covered(s["start"], s["end"], children[s["id"]])
    return dict(out)


def call_counts(spans) -> dict:
    counts = defaultdict(int)
    for s in spans:
        counts[s["name"]] += 1
    return dict(counts)
