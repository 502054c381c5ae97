"""Timing and span recording around calls into the program's layers.

A :class:`Ledger` times every call the benchmark makes into a layer of
``repro``.  Untraced, it only reads the clock.  Traced, it also keeps a
span per call (name, start, end, parent, run id) and the process's
``ru_maxrss`` before and after, in memory, for :meth:`Ledger.write_spans`
to write out when the run ends.

The repo's own tracer (``repro.obs.tracer``) is never enabled: switching
it on moves AGT-RAM off its tight loop.  Each timed call records whether
that tracer was enabled, so a test can prove it never was.
"""

from __future__ import annotations

import json
import resource
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

from repro.obs import tracer as repro_tracer


def peak_rss_kb() -> int:
    """The process's peak resident set size (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class Timed:
    """The clock readings of one call; filled in when its block exits.

    ``seconds`` covers the call alone.  ``outer_seconds`` also covers
    the span bookkeeping around it, so summing it over a pass's
    top-level calls charges the tracing cost to the traced pass.
    """

    name: str
    seconds: float = 0.0
    outer_seconds: float = 0.0


class Ledger:
    """Times layer calls; records spans when ``traced``."""

    def __init__(self, *, traced: bool, origin: Optional[float] = None) -> None:
        self.traced = traced
        self.origin = perf_counter() if origin is None else origin
        self.run_id = ""
        self.spans: list[dict] = []
        #: ``repro.obs.tracer.current().enabled`` as seen by each timed call.
        self.tracer_flags: list[bool] = []
        self._stack: list[int] = []

    @contextmanager
    def call(self, name: str) -> Iterator[Timed]:
        """Time the block as one call into a layer, named ``layer.function``."""
        rec = Timed(name)
        if not self.traced:
            self.tracer_flags.append(repro_tracer.current().enabled)
            t0 = perf_counter()
            try:
                yield rec
            finally:
                rec.seconds = rec.outer_seconds = perf_counter() - t0
            return
        outer0 = perf_counter()
        span = {
            "run_id": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "rss_before_kb": peak_rss_kb(),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        self.tracer_flags.append(repro_tracer.current().enabled)
        t0 = perf_counter()
        try:
            yield rec
        finally:
            t1 = perf_counter()
            self._stack.pop()
            span["start"] = t0 - self.origin
            span["end"] = t1 - self.origin
            span["rss_after_kb"] = peak_rss_kb()
            rec.seconds = t1 - t0
            rec.outer_seconds = perf_counter() - outer0

    def rss_growth_kb(self, run_id: str) -> dict[str, int]:
        """Growth of the peak RSS during each layer's top-most calls of
        one traced pass, keyed by layer (the name before the first dot)."""
        spans = [s for s in self.spans if s["run_id"] == run_id]
        by_id = {s["id"]: s for s in spans}
        growth: dict[str, int] = {}
        for s in spans:
            layer = s["name"].split(".", 1)[0]
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"].split(".", 1)[0] == layer:
                continue  # already inside a call of the same layer
            growth[layer] = growth.get(layer, 0) + (
                s["rss_after_kb"] - s["rss_before_kb"]
            )
        return growth

    def write_spans(self, path: Path) -> Path:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        return path
