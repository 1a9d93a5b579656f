"""In-memory spans and counters for the benchmark's traced runs.

Spans are recorded by the benchmark's own code around its calls into the
package's public functions; the package itself carries no instrumentation.
A disabled tracer turns every span into a no-op, so traced and untraced
runs execute the same workload code.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Records spans (name, start, end, parent, run) and per-layer counters.

    ``mode`` is "off", "time" (spans kept in memory) or "memory" (each
    innermost span records its tracemalloc peak above the memory in use
    when it opened, instead of a time).
    """

    def __init__(self, mode: str = "off"):
        self.mode = mode
        self.spans: List[dict] = []
        self.counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.peak_alloc: Dict[str, int] = {}
        self.run_id: Optional[str] = None
        self._open: List[dict] = []

    @contextmanager
    def span(self, name: str):
        if self.mode == "off":
            yield
            return
        if self._open:
            self._open[-1]["has_child"] = True
        frame = {"has_child": False, "index": len(self.spans)}
        if self.mode == "memory":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        else:
            parent = self._open[-1]["index"] if self._open else None
            record = {"name": name, "start": time.perf_counter(), "end": None,
                      "parent": parent, "run": self.run_id}
            self.spans.append(record)
        self._open.append(frame)
        try:
            yield
        finally:
            self._open.pop()
            if self.mode == "memory":
                if not frame["has_child"]:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    self.peak_alloc[name] = max(self.peak_alloc.get(name, 0), peak)
            else:
                record["end"] = time.perf_counter()

    def count(self, layer: str, key: str, value: int = 1) -> None:
        if self.mode != "off":
            self.counts[layer][key] += int(value)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's durations."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, List[float]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s["name"]].append(s["end"] - s["start"] - child[i])
        return out


def median_or_zero(values) -> float:
    """Median of ``values``; 0.0 for a layer the workload never called."""
    values = list(values)
    return statistics.median(values) if values else 0.0


@contextmanager
def memory_tracing(tracer: Tracer):
    """Switch ``tracer`` to memory mode with tracemalloc on, then restore it."""
    previous = tracer.mode
    tracemalloc.start()
    tracer.mode = "memory"
    try:
        yield tracer
    finally:
        tracer.mode = previous
        tracemalloc.stop()
