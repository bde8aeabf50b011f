"""Spans recorded by the benchmark around its own calls into weightdist.

The library is not instrumented: every span opens and closes in benchmark
code, around one call into a public function of one module (the span's
layer), or around a whole job.  Spans are kept in memory and handed out once,
when the pass ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; disabled, it only forwards calls.

    `phase` tags each span with the part of the pass it belongs to
    ("setup", "job", "check", ...) and `job` with the job it serves.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.phase = "setup"
        self.job: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, metric: str | None = None,
             work: int | None = None):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "phase": self.phase, "job": self.job,
               "parent": self._stack[-1] if self._stack else None,
               "metric": metric, "work": work}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, layer: str, fn, *args, metric: str | None = None,
             work: int | None = None, **kwargs):
        """fn(*args, **kwargs), inside a span named after fn when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(fn.__qualname__, layer, metric, work):
            return fn(*args, **kwargs)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its spans and not in their child spans.

    Children of one span run one after another in a single thread, so the
    part of a span's interval they cover is the sum of their durations.
    """
    covered = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] in covered:
            covered[s["parent"]] += duration(s)
    out: dict[str, float] = {}
    for s in spans:
        out[s["layer"]] = out.get(s["layer"], 0.0) + duration(s) - covered[s["id"]]
    return out
