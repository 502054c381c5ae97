"""repro.obs — lightweight observability: tracing, events, exporters.

Four parts:

* :mod:`repro.obs.tracer` — hierarchical timer spans and counters with a
  near-zero-overhead disabled mode.  The whole library is instrumented
  permanently; tracing only costs something once a tracer is installed
  (:func:`capture` / :func:`install`).
* :mod:`repro.obs.events` — the typed, schema-versioned event stream
  (round boundaries, bids, winners, payments, NN updates, capacity
  rejections) plus the per-round time-series registry; no-op by default
  behind the same discipline (:func:`capture_events`).
* :mod:`repro.obs.export` — standard-format exporters for the stream:
  JSONL event log, Chrome trace-event JSON (Perfetto-loadable), and an
  OpenMetrics/Prometheus textfile snapshot.
* :mod:`repro.obs.report` — the machine-readable perf harness behind
  ``python -m repro bench``: runs the benchmark scenarios with tracing
  on, emits a schema-versioned ``BENCH_<date>.json``, and diffs two such
  documents for regressions.  :mod:`repro.obs.audit` re-verifies the
  mechanism's axioms offline from a recorded event log
  (``python -m repro audit``).

See ``docs/observability.md`` for the span taxonomy, event schema and
JSON schemas.
"""

from repro.obs.events import (
    NULL_SINK,
    EventSink,
    RoundSeries,
)
from repro.obs.events import capture as capture_events
from repro.obs.events import current as current_sink
from repro.obs.events import install as install_sink
from repro.obs.tracer import (
    NULL_TRACER,
    SpanStat,
    Tracer,
    capture,
    current,
    install,
)

__all__ = [
    "NULL_TRACER",
    "SpanStat",
    "Tracer",
    "capture",
    "current",
    "install",
    "NULL_SINK",
    "EventSink",
    "RoundSeries",
    "capture_events",
    "current_sink",
    "install_sink",
]
