"""Standard-format exporters for the ``repro.obs`` event stream.

Four targets:

* **JSONL event log** — one header line plus one JSON object per event;
  lossless (``read_events_jsonl`` parses back the same typed events),
  the input format of the offline audit (:mod:`repro.obs.audit`).
  :class:`RotatingJsonlWriter` streams the same format across size- or
  count-bounded ``.partNNNNN`` chunk files so a large campaign never
  holds its log in memory; :func:`event_log_chunks` re-discovers the
  chunk set and :func:`iter_events_jsonl` replays any one file lazily.
* **Binary event log** — a compact length-prefixed codec
  (:func:`write_events_binary` / :func:`iter_events_binary`) whose
  decode is a lossless round-trip back to the same typed events; about
  4-6x smaller than JSONL and decodable record-by-record in bounded
  memory.  Format spec in docs/observability.md.
* **Chrome trace-event JSON** — loadable in Perfetto / ``chrome://tracing``;
  runs and rounds become duration ("X") slices on the central track,
  bids/winners/payments become instant events on per-agent tracks.
* **OpenMetrics / Prometheus textfile** — a point-in-time snapshot of a
  bench document or a tracer snapshot, suitable for the node-exporter
  textfile collector.  :func:`lint_openmetrics` checks the invariants
  the exposition format requires.

:func:`open_event_stream` sniffs a file's magic and returns the right
lazy decoder, so consumers (the windowed audit, the CLI) accept either
log format interchangeably.
"""

from __future__ import annotations

import itertools
import json
import struct
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import decoding
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    AdversaryEvent,
    BidEvent,
    CapacityReject,
    CheckpointEvent,
    ElectionEvent,
    Event,
    FailoverEvent,
    FaultEvent,
    HealEvent,
    HedgeEvent,
    InvariantEvent,
    ManipulationEvent,
    NNUpdateEvent,
    PartitionEvent,
    PaymentEvent,
    QuarantineEvent,
    ReauctionEvent,
    ReconcileEvent,
    RecoveryEvent,
    RequestEvent,
    RequestTimeout,
    RoundBlock,
    RoundEnd,
    RoundStart,
    RunEnd,
    RunStart,
    ServeEnd,
    ServeStart,
    ShedEvent,
    TimeoutEvent,
    ValidationEvent,
    WinnerEvent,
    field_plan,
    iter_block_events,
    json_value,
    parse_event,
    stream_items,
)

__all__ = [
    "EVENTS_KIND",
    "BINARY_MAGIC",
    "write_events_jsonl",
    "read_events_jsonl",
    "iter_events_jsonl",
    "RotatingJsonlWriter",
    "chunk_path",
    "event_log_chunks",
    "write_events_binary",
    "read_events_binary",
    "iter_events_binary",
    "open_event_stream",
    "iter_event_logs",
    "events_to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "openmetrics_from_bench",
    "openmetrics_from_snapshot",
    "lint_openmetrics",
]

#: ``kind`` tag of the JSONL header line.
EVENTS_KIND = "repro-events"


# -- JSONL event log ---------------------------------------------------------


#: The JSONL header line, newline included.
_HEADER_LINE = (
    json.dumps(
        {"kind": EVENTS_KIND, "schema_version": EVENT_SCHEMA_VERSION},
        sort_keys=True,
    )
    + "\n"
)


def _event_line(event: Event) -> str:
    """The event's JSONL line, byte-identical to
    ``json.dumps(event.to_dict(), sort_keys=True) + "\\n"``."""
    plan = field_plan(type(event))
    return plan.line % tuple(map(json_value, plan.sorted_values(event)))


def _block_template(cls: type[Event], slots: tuple[str, ...], **fixed: Any) -> str:
    template, got = field_plan(cls).template(**fixed)
    if got != slots:  # pragma: no cover - schema drift guard
        raise TypeError(f"{cls.__name__} block slots {got} != {slots}")
    return template


_START = _block_template(RoundStart, ("round", "t"), region=-1)
_BID = _block_template(
    BidEvent, ("agent", "obj", "round", "t", "value"), region=-1
)
_WINNER = _block_template(
    WinnerEvent,
    ("agent", "obj", "obj_size", "residual_before", "round", "t", "value"),
    region=-1,
)
_NN = _block_template(NNUpdateEvent, ("agents", "obj", "round", "t"))
_END = _block_template(RoundEnd, ("committed", "otc", "round", "t"), region=-1)


def _block_lines(block: RoundBlock) -> Iterator[list[str]]:
    """Per round, the JSONL lines of ``iter_block_events(block)``,
    formatted straight from the block's columns (same values, same
    ``t += step`` timestamps) without building an event."""
    t, step = float(block.t0), float(block.t_step)
    # Finite stamps render as repr; a block whose stamps could leave the
    # finite range takes the per-event path.
    if not abs(t) + abs(step) * block.n_events < 1e300:
        for event in iter_block_events(block):
            yield [_event_line(event)]
        return
    payment = _block_template(
        PaymentEvent, ("agent", "amount", "round", "t"),
        region=-1, rule=block.payment_rule,
    )
    m = int(block.n_agents)
    finite = np.isfinite(block.bid_vals)
    columns = zip(
        block.winners.tolist(), block.objs.tolist(), block.obj_sizes.tolist(),
        block.residuals.tolist(), block.payments.tolist(), block.otcs.tolist(),
    )
    for i, (winner, obj, size, residual, amount, otc) in enumerate(columns):
        rnd = int(block.base_round) + i
        lines = [_START % (rnd, t)]
        t += step
        agents = np.flatnonzero(finite[i])
        bids = zip(
            agents.tolist(),
            block.bid_objs[i, agents].tolist(),
            block.bid_vals[i, agents].tolist(),
        )
        for agent, bid_obj, value in bids:
            lines.append(_BID % (agent, bid_obj, rnd, t, value))
            t += step
        if winner >= 0:
            value = json_value(float(block.bid_vals[i, winner]))
            lines.append(
                _WINNER % (winner, obj, int(size), residual, rnd, t, value)
            )
            t += step
            lines.append(payment % (winner, json_value(amount), rnd, t))
            t += step
            lines.append(_NN % (m, obj, rnd, t))
            t += step
        lines.append(_END % (int(winner >= 0), json_value(otc), rnd, t))
        t += step
        yield lines


def _line_batches(events: Iterable[Event]) -> Iterator[list[str]]:
    """The stream's JSONL lines, one batch per block round or loose event."""
    for item in stream_items(events):
        if isinstance(item, RoundBlock):
            yield from _block_lines(item)
        else:
            yield [_event_line(item)]


def write_events_jsonl(events: Iterable[Event], path: str | Path) -> Path:
    """Write the stream as JSON Lines: a header record, then one event
    per line, streamed one block round at a time.  Returns the path
    written."""
    out = Path(path)
    with open(out, "w", encoding="utf-8") as f:
        f.write(_HEADER_LINE)
        for lines in _line_batches(events):
            f.write("".join(lines))
    return out


def _check_jsonl_header(line: str) -> None:
    """Validate the JSONL header line; raises ``ValueError``."""
    header = json.loads(line)
    if not isinstance(header, dict) or header.get("kind") != EVENTS_KIND:
        raise ValueError(
            f"not a {EVENTS_KIND} log: header={header!r}"
        )
    version = header.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"bad event schema_version: {version!r}")
    if version > EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event log schema_version {version} is newer than supported "
            f"{EVENT_SCHEMA_VERSION}; upgrade the library"
        )


def _typed_decode(path: str | Path, events: Iterator[Event]) -> Iterator[Event]:
    """Re-raise any decoding failure of ``events`` as a
    :class:`~repro.errors.CorruptInputError` naming the file."""
    with decoding(path):
        yield from events


def iter_events_jsonl(path: str | Path) -> Iterator[Event]:
    """Lazily parse a JSONL event log: one event per ``next()``, one
    line of the file in memory at a time.

    Raises :class:`~repro.errors.CorruptInputError` (a ``ValueError``)
    on a missing/foreign header, a newer schema version than this
    library understands, or an unparseable record.
    """
    return _typed_decode(path, _iter_events_jsonl(path))


#: Decodes one JSON value off the front of a line, returning its end.
_RAW_DECODE = json.JSONDecoder().raw_decode


def _iter_events_jsonl(path: str | Path) -> Iterator[Event]:
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first.strip():
            raise ValueError("empty event log")
        _check_jsonl_header(first)
        for i, line in enumerate(f, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _RAW_DECODE(line)
                if end != len(line):
                    raise ValueError(f"Extra data at column {end + 1}")
                if not isinstance(record, dict):
                    raise ValueError("record is not a JSON object")
                event = parse_event(record)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {i}: {exc}") from exc
            yield event


def read_events_jsonl(path: str | Path) -> list[Event]:
    """Parse a whole JSONL event log back into typed events."""
    return list(iter_events_jsonl(path))


# -- chunked / rotating JSONL ------------------------------------------------


def chunk_path(path: str | Path, index: int) -> Path:
    """The ``index``-th rotation chunk of a logical log ``path``:
    ``events.jsonl`` -> ``events.part00000.jsonl``, ``events.part00001.jsonl``
    … (five digits, so lexicographic order is replay order up to 100k
    chunks)."""
    p = Path(path)
    return p.with_name(f"{p.stem}.part{index:05d}{p.suffix}")


def event_log_chunks(path: str | Path) -> list[Path]:
    """Resolve a logical log path to its ordered file list.

    A plain single-file log resolves to itself; a rotated log (the
    logical path does not exist but ``<stem>.partNNNNN<suffix>`` chunks
    do) resolves to the sorted chunk list.  Raises ``FileNotFoundError``
    when neither exists.
    """
    p = Path(path)
    if p.exists():
        return [p]
    chunks = sorted(p.parent.glob(f"{p.stem}.part[0-9][0-9][0-9][0-9][0-9]{p.suffix}"))
    if not chunks:
        raise FileNotFoundError(f"no event log at {p} and no {p.stem}.part* chunks")
    return chunks


class RotatingJsonlWriter:
    """Streaming JSONL writer with size/count-based rotation.

    Events are serialized as they arrive — nothing is buffered beyond
    the OS file buffer, so a multi-gigabyte campaign log never lives in
    memory.  With ``max_events``/``max_bytes`` set, the stream rotates
    into ``chunk_path(path, i)`` files, each a self-contained JSONL log
    (own header line); with neither set, everything goes to ``path``
    itself.  ``max_bytes`` is checked *before* each write, so a chunk
    may overshoot by at most one serialized event rather than ever
    splitting one.

    Use as a context manager::

        with RotatingJsonlWriter("log.jsonl", max_events=100_000) as w:
            for e in events:
                w.write(e)
        w.paths  # the chunk files written, in order
    """

    def __init__(
        self,
        path: str | Path,
        *,
        max_events: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._logical = Path(path)
        self._rotating = max_events is not None or max_bytes is not None
        self.max_events = max_events
        self.max_bytes = max_bytes
        #: Chunk files opened so far, in write order.
        self.paths: list[Path] = []
        self.events_written = 0
        self._file: Optional[Any] = None
        self._chunk_events = 0
        self._chunk_bytes = 0

    def _open_next(self) -> None:
        if self._file is not None:
            self._file.close()
        target = (
            chunk_path(self._logical, len(self.paths))
            if self._rotating
            else self._logical
        )
        self._file = open(target, "w", encoding="utf-8")
        self.paths.append(target)
        self._file.write(_HEADER_LINE)
        self._chunk_events = 0
        self._chunk_bytes = len(_HEADER_LINE)

    def _should_rotate(self, incoming: int) -> bool:
        if not self._rotating or self._chunk_events == 0:
            return False
        if self.max_events is not None and self._chunk_events >= self.max_events:
            return True
        return (
            self.max_bytes is not None
            and self._chunk_bytes + incoming > self.max_bytes
        )

    def write(self, event: Event) -> None:
        self._write_line(_event_line(event))

    def _write_line(self, line: str) -> None:
        if self._file is None or self._should_rotate(len(line)):
            self._open_next()
        assert self._file is not None
        self._file.write(line)
        self._chunk_events += 1
        self._chunk_bytes += len(line)
        self.events_written += 1

    def write_all(self, events: Iterable[Event]) -> None:
        for lines in _line_batches(events):
            for line in lines:
                self._write_line(line)

    def close(self) -> None:
        if self._file is None:
            # Zero events still yields a valid (header-only) log.
            self._open_next()
        assert self._file is not None
        self._file.close()
        self._file = None

    def __enter__(self) -> "RotatingJsonlWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- binary event log --------------------------------------------------------

#: File magic of the length-prefixed binary event codec.
BINARY_MAGIC = b"REVB"
#: Binary container version (bumped only on incompatible layout change).
BINARY_VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: Field codecs are keyed by the *annotation string* of the dataclass
#: field (``from __future__ import annotations`` keeps them strings);
#: :class:`~repro.obs.events.FieldPlan` rejects any other shape when an
#: event class's plan is built.


def _encode_field(ann: str, value: Any, out: bytearray) -> None:
    if ann == "float":
        out += _F64.pack(value)
    elif ann == "int":
        out += _I64.pack(value)
    elif ann == "bool":
        out += b"\x01" if value else b"\x00"
    elif ann == "str":
        raw = value.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
    elif ann == "tuple[int, ...]":
        out += _U32.pack(len(value))
        out += struct.pack(f"<{len(value)}q", *value)
    elif ann == "tuple[tuple[int, int], ...]":
        out += _U32.pack(len(value))
        flat = [x for pair in value for x in pair]
        out += struct.pack(f"<{len(flat)}q", *flat)
    else:  # pragma: no cover - schema drift guard
        raise TypeError(f"no binary codec for field annotation {ann!r}")


def _decode_field(ann: str, buf: bytes, off: int) -> tuple[Any, int]:
    if ann == "float":
        return _F64.unpack_from(buf, off)[0], off + 8
    if ann == "int":
        return _I64.unpack_from(buf, off)[0], off + 8
    if ann == "bool":
        return buf[off] != 0, off + 1
    if ann == "str":
        n = _U32.unpack_from(buf, off)[0]
        off += 4
        return buf[off : off + n].decode("utf-8"), off + n
    if ann == "tuple[int, ...]":
        n = _U32.unpack_from(buf, off)[0]
        off += 4
        return tuple(struct.unpack_from(f"<{n}q", buf, off)), off + 8 * n
    if ann == "tuple[tuple[int, int], ...]":
        n = _U32.unpack_from(buf, off)[0]
        off += 4
        flat = struct.unpack_from(f"<{2 * n}q", buf, off)
        return (
            tuple((flat[2 * i], flat[2 * i + 1]) for i in range(n)),
            off + 16 * n,
        )
    raise TypeError(f"no binary codec for field annotation {ann!r}")


def write_events_binary(events: Iterable[Event], path: str | Path) -> Path:
    """Write the stream in the length-prefixed binary format.

    Layout (all integers little-endian): magic ``REVB``, u8 container
    version, u16 kind count, then the kind table (u8 tag length + UTF-8
    ``type`` tag per kind — the table is self-describing, so a reader
    never depends on registry ordering), then one record per event:
    u8 kind index, u32 payload length, payload = the event's dataclass
    fields in declaration order under the per-annotation codecs.
    Returns the path written.
    """
    out = Path(path)
    tags = list(EVENT_TYPES)
    index = {tag: i for i, tag in enumerate(tags)}
    with open(out, "wb") as f:
        f.write(BINARY_MAGIC)
        f.write(_U8.pack(BINARY_VERSION))
        f.write(_U16.pack(len(tags)))
        for tag in tags:
            raw = tag.encode("utf-8")
            f.write(_U8.pack(len(raw)))
            f.write(raw)
        payload = bytearray()
        for event in events:
            plan = field_plan(type(event))
            payload.clear()
            for (_, ann), value in zip(plan.fields, plan.values(event)):
                _encode_field(ann, value, payload)
            f.write(_U8.pack(index[event.type]))
            f.write(_U32.pack(len(payload)))
            f.write(payload)
    return out


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    raw = f.read(n)
    if len(raw) != n:
        raise ValueError(f"truncated binary event log: short read in {what}")
    return raw


def iter_events_binary(path: str | Path) -> Iterator[Event]:
    """Lazily decode a binary event log: one record in memory at a time.

    Raises :class:`~repro.errors.CorruptInputError` (a ``ValueError``)
    on bad magic, an unsupported container version, an unknown kind tag,
    or a truncated, overlong or bit-flipped record.
    """
    return _typed_decode(path, _iter_events_binary(path))


def _iter_events_binary(path: str | Path) -> Iterator[Event]:
    with open(path, "rb") as f:
        if f.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
            raise ValueError(f"not a {BINARY_MAGIC!r} binary event log")
        version = _U8.unpack(_read_exact(f, 1, "version"))[0]
        if version > BINARY_VERSION:
            raise ValueError(
                f"binary event log version {version} is newer than supported "
                f"{BINARY_VERSION}; upgrade the library"
            )
        n_kinds = _U16.unpack(_read_exact(f, 2, "kind table"))[0]
        classes: list[type[Event]] = []
        plans: list[tuple[tuple[str, str], ...]] = []
        for _ in range(n_kinds):
            tag_len = _U8.unpack(_read_exact(f, 1, "kind table"))[0]
            tag = _read_exact(f, tag_len, "kind table").decode("utf-8")
            cls = EVENT_TYPES.get(tag)
            if cls is None:
                raise ValueError(f"unknown event kind {tag!r} in binary log")
            classes.append(cls)
            plans.append(field_plan(cls).fields)
        while True:
            head = f.read(1)
            if not head:
                return  # clean EOF at a record boundary
            kind = head[0]
            if kind >= n_kinds:
                raise ValueError(f"record kind index {kind} out of range")
            size = _U32.unpack(_read_exact(f, 4, "record header"))[0]
            buf = _read_exact(f, size, "record payload")
            values: dict[str, Any] = {}
            off = 0
            for name, ann in plans[kind]:
                values[name], off = _decode_field(ann, buf, off)
            if off != size:
                raise ValueError(
                    f"record payload length mismatch: {off} decoded of {size}"
                )
            yield classes[kind](**values)


def read_events_binary(path: str | Path) -> list[Event]:
    """Decode a whole binary event log back into typed events."""
    return list(iter_events_binary(path))


def open_event_stream(path: str | Path) -> Iterator[Event]:
    """Lazy event iterator over either log format, sniffed by magic:
    files starting with ``REVB`` decode as binary, anything else parses
    as JSONL."""
    with open(path, "rb") as f:
        magic = f.read(len(BINARY_MAGIC))
    if magic == BINARY_MAGIC:
        return iter_events_binary(path)
    return iter_events_jsonl(path)


def iter_event_logs(paths: Sequence[str | Path]) -> Iterator[Event]:
    """One lazy stream over logical event logs: each path resolved to its
    files by :func:`event_log_chunks`, each file decoded by
    :func:`open_event_stream`."""
    files = [chunk for path in paths for chunk in event_log_chunks(path)]
    return itertools.chain.from_iterable(map(open_event_stream, files))


# -- Chrome trace-event JSON -------------------------------------------------

#: Process id used for every trace event (one mechanism process).
_TRACE_PID = 1
#: Thread id of the central body's track; agent i uses ``i + 1``.
_CENTRAL_TID = 0


def _us(t: float, t0: float) -> float:
    """Rebased microseconds (the trace-event time unit)."""
    return (t - t0) * 1e6


#: Instant ("i") events per kind: (name, track field, always, args).
#: ``name`` formats the event as ``{0}``.  The instant lands on the
#: track of the agent the track field names (tid ``agent + 1``) when it
#: is >= 0 or ``always``, else on the central track.
_INSTANTS: dict[type, tuple[str, Optional[str], bool, Any]] = {
    BidEvent: ("bid", "agent", True, lambda e: {"obj": e.obj, "value": e.value}),
    WinnerEvent: ("winner", "agent", True, lambda e: {
        "obj": e.obj, "value": e.value, "round": e.round}),
    PaymentEvent: ("payment", "agent", True, lambda e: {
        "amount": e.amount, "rule": e.rule, "round": e.round}),
    CapacityReject: ("capacity_reject", "agent", True, lambda e: {
        "obj": e.obj, "obj_size": e.obj_size, "residual": e.residual}),
    NNUpdateEvent: ("nn_update", None, False, lambda e: {
        "obj": e.obj, "agents": e.agents, "round": e.round}),
    FaultEvent: ("fault:{0.kind}", "agent", False, lambda e: {
        "target": e.target, "detail": e.detail, "round": e.round}),
    TimeoutEvent: ("bid_timeout", None, False, lambda e: {
        "agents": list(e.agents), "expected": e.expected,
        "received": e.received, "quorum_met": e.quorum_met, "round": e.round}),
    ElectionEvent: ("election", None, False, lambda e: {
        "candidate": e.candidate, "voters": e.voters, "round": e.round}),
    CheckpointEvent: ("checkpoint", None, False, lambda e: {
        "allocations": e.allocations, "round": e.round}),
    RecoveryEvent: ("recovery:{0.kind}", "agent", False, lambda e: {
        "checkpoint_round": e.checkpoint_round, "replayed": e.replayed,
        "acting_central": e.acting_central, "round": e.round}),
    ValidationEvent: ("validation:{0.kind}", "agent", False, lambda e: {
        "obj": e.obj, "value": e.value, "detail": e.detail, "round": e.round}),
    ManipulationEvent: ("manipulation:{0.kind}", "agent", True, lambda e: {
        "obj": e.obj, "reported": e.reported, "recomputed": e.recomputed,
        "round": e.round}),
    QuarantineEvent: ("quarantine:{0.action}", "agent", True, lambda e: {
        "strikes": e.strikes, "until_round": e.until_round, "round": e.round}),
    AdversaryEvent: ("adversary:{0.behavior}", "agent", True, lambda e: {
        "obj": e.obj, "value": e.value, "detail": e.detail, "round": e.round}),
    RequestEvent: ("request:{0.outcome}", "replica", False, lambda e: {
        "obj": e.obj, "kind": e.kind, "latency": e.latency,
        "attempts": e.attempts, "tick": e.tick}),
    RequestTimeout: ("request_timeout", "replica", False, lambda e: {
        "obj": e.obj, "attempt": e.attempt, "tick": e.tick}),
    HedgeEvent: ("hedge", "backup", False, lambda e: {
        "obj": e.obj, "primary": e.primary, "winner": e.winner, "tick": e.tick}),
    ShedEvent: ("shed", None, False, lambda e: {
        "obj": e.obj, "kind": e.kind, "tokens": e.tokens, "tick": e.tick}),
    FailoverEvent: ("failover:{0.reason}", "to_server", False, lambda e: {
        "obj": e.obj, "from": e.from_server, "tick": e.tick}),
    ReauctionEvent: ("reauction:{0.trigger}", None, False, lambda e: {
        "objects": list(e.objects), "added": len(e.added),
        "removed": len(e.removed), "otc_after": e.otc_after, "tick": e.tick}),
    PartitionEvent: ("partition", None, False, lambda e: {
        "islands": list(e.islands), "round": e.round}),
    HealEvent: ("heal", None, False, lambda e: {
        "islands": list(e.islands), "divergent": e.divergent, "round": e.round}),
    ReconcileEvent: ("reconcile", None, False, lambda e: {
        "conflicts": list(e.conflicts), "kept": len(e.kept),
        "revoked": len(e.revoked), "refunded_capacity": e.refunded_capacity,
        "round": e.round}),
    InvariantEvent: ("invariant:{0.invariant}", "agent", False, lambda e: {
        "round": e.round, "tick": e.tick, "obj": e.obj, "value": e.value,
        "bound": e.bound, "detail": e.detail}),
}


def events_to_chrome_trace(events: Sequence[Event]) -> dict[str, Any]:
    """Convert an event stream to a Chrome trace-event document.

    Runs and rounds become complete ("X") slices on the central track —
    nested slices render as a flame graph in Perfetto; per-agent
    decisions (bid/winner/payment/capacity_reject) become instant ("i")
    events on that agent's own track.
    """
    if not events:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = events[0].t
    trace: list[dict[str, Any]] = []
    agents_seen: set[int] = set()
    run_stack: list[RunStart] = []
    round_open: dict[int, RoundStart] = {}
    serve_open: list[ServeStart] = []

    def complete(start: Event, end: Event, name: str, args: dict[str, Any]) -> None:
        trace.append(
            {
                "name": name,
                "ph": "X",
                "ts": _us(start.t, t0),
                "dur": max(0.0, _us(end.t, t0) - _us(start.t, t0)),
                "pid": _TRACE_PID,
                "tid": _CENTRAL_TID,
                "args": args,
            }
        )

    for e in events:
        instant = _INSTANTS.get(type(e))
        if instant is not None:
            name, track, always, args = instant
            tid = _CENTRAL_TID
            if track is not None:
                agent = getattr(e, track)
                if always or agent >= 0:
                    agents_seen.add(agent)
                    tid = agent + 1
            trace.append(
                {
                    "name": name.format(e),
                    "ph": "i",
                    "ts": _us(e.t, t0),
                    "pid": _TRACE_PID,
                    "tid": tid,
                    "s": "t",
                    "args": args(e),
                }
            )
        elif isinstance(e, RunStart):
            run_stack.append(e)
        elif isinstance(e, RunEnd):
            if run_stack:
                start = run_stack.pop()
                complete(
                    start,
                    e,
                    f"run {e.algorithm}",
                    {"otc": e.otc, "rounds": e.rounds},
                )
        elif isinstance(e, RoundStart):
            round_open[e.round] = e
        elif isinstance(e, RoundEnd):
            start = round_open.pop(e.round, None)
            if start is not None:
                complete(
                    start,
                    e,
                    f"round {e.round}",
                    {"committed": e.committed, "otc": e.otc},
                )
        elif isinstance(e, ServeStart):
            serve_open.append(e)
        elif isinstance(e, ServeEnd):
            if serve_open:
                start = serve_open.pop()
                complete(
                    start,
                    e,
                    f"serve {start.workload}",
                    {
                        "served": e.served,
                        "shed": e.shed,
                        "failed": e.failed,
                        "availability": e.availability,
                        "p99": e.p99,
                    },
                )

    # Track naming metadata: process + central + one track per agent.
    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "ts": 0.0,
            "pid": _TRACE_PID,
            "tid": _CENTRAL_TID,
            "args": {"name": "repro mechanism"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": _TRACE_PID,
            "tid": _CENTRAL_TID,
            "args": {"name": "central"},
        },
    ]
    for agent in sorted(agents_seen):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0.0,
                "pid": _TRACE_PID,
                "tid": agent + 1,
                "args": {"name": f"agent {agent}"},
            }
        )
    trace.sort(key=lambda d: d["ts"])
    return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[Event], path: str | Path) -> Path:
    """Convert, validate and write a Chrome trace file."""
    doc = events_to_chrome_trace(events)
    validate_chrome_trace(doc)
    out = Path(path)
    out.write_text(json.dumps(doc) + "\n")
    return out


def validate_chrome_trace(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed trace document.

    Checks the JSON-object form, the required per-event keys, that "X"
    events carry a non-negative ``dur``, and that non-metadata ``ts``
    values are monotonically non-decreasing (our exporter sorts them).
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise ValueError("trace document must be {'traceEvents': [...]}")
    last_ts: Optional[float] = None
    for i, e in enumerate(doc["traceEvents"]):
        if not isinstance(e, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                raise ValueError(f"traceEvents[{i}] missing required key {key!r}")
        if not isinstance(e["ts"], (int, float)) or e["ts"] < 0:
            raise ValueError(f"traceEvents[{i}].ts must be a non-negative number")
        if e["ph"] == "X":
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                raise ValueError(
                    f"traceEvents[{i}] ('X') needs a non-negative dur"
                )
        if e["ph"] == "M":
            continue
        if last_ts is not None and e["ts"] < last_ts:
            raise ValueError(
                f"traceEvents[{i}].ts={e['ts']} decreases (prev {last_ts})"
            )
        last_ts = e["ts"]


# -- OpenMetrics / Prometheus textfile ---------------------------------------


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(name: str, labels: dict[str, str], value: float) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {value!r}"
    return f"{name} {value!r}"


def _render(families: list[tuple[str, str, str, list[tuple[dict, float]]]]) -> str:
    """Render ``(name, type, help, [(labels, value), ...])`` families."""
    lines: list[str] = []
    for name, mtype, help_text, samples in families:
        if not samples:
            continue
        # OpenMetrics declares the *family* name; counter samples carry
        # the `_total` suffix on top of it.
        family = (
            name[: -len("_total")]
            if mtype == "counter" and name.endswith("_total")
            else name
        )
        lines.append(f"# TYPE {family} {mtype}")
        lines.append(f"# HELP {family} {help_text}")
        for labels, value in samples:
            lines.append(_sample(name, labels, float(value)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def openmetrics_from_snapshot(
    snapshot: dict[str, Any], labels: Optional[dict[str, str]] = None
) -> str:
    """OpenMetrics text from one :meth:`Tracer.snapshot` dict."""
    base = dict(labels or {})
    span_seconds: list[tuple[dict, float]] = []
    span_count: list[tuple[dict, float]] = []
    counter_samples: list[tuple[dict, float]] = []
    for path, stat in sorted(snapshot.get("spans", {}).items()):
        span_seconds.append(({**base, "path": path}, stat["total_s"]))
        span_count.append(({**base, "path": path}, stat["count"]))
    for path, value in sorted(snapshot.get("counters", {}).items()):
        counter_samples.append(({**base, "path": path}, value))
    return _render(
        [
            (
                "repro_span_seconds_total",
                "counter",
                "Total seconds recorded under each span path.",
                span_seconds,
            ),
            (
                "repro_span_count_total",
                "counter",
                "Number of entries recorded under each span path.",
                span_count,
            ),
            (
                "repro_counter_total",
                "counter",
                "repro.obs named counters.",
                counter_samples,
            ),
        ]
    )


def openmetrics_from_bench(doc: dict[str, Any]) -> str:
    """OpenMetrics text from one ``repro-bench`` JSON document.

    One gauge per headline metric, labeled by scenario/algorithm, plus
    the span totals of every record — a point-in-time snapshot suitable
    for the Prometheus textfile collector.
    """
    wall: list[tuple[dict, float]] = []
    savings: list[tuple[dict, float]] = []
    rounds: list[tuple[dict, float]] = []
    replicas: list[tuple[dict, float]] = []
    messages: list[tuple[dict, float]] = []
    bytes_: list[tuple[dict, float]] = []
    span_seconds: list[tuple[dict, float]] = []
    for record in doc.get("results", []):
        labels = {
            "scenario": record["scenario"],
            "algorithm": record["algorithm"],
            "scale": str(doc.get("scale", "")),
        }
        wall.append((labels, record["wall_s"]))
        if "savings_percent" in record:
            savings.append((labels, record["savings_percent"]))
        if "rounds" in record:
            rounds.append((labels, record["rounds"]))
        if "replicas" in record:
            replicas.append((labels, record["replicas"]))
        if "messages" in record:
            messages.append((labels, record["messages"]))
        if "bytes" in record:
            bytes_.append((labels, record["bytes"]))
        for path, stat in sorted(record.get("spans", {}).items()):
            span_seconds.append(({**labels, "path": path}, stat["total_s"]))
    return _render(
        [
            (
                "repro_bench_wall_seconds",
                "gauge",
                "Best wall time of each bench scenario.",
                wall,
            ),
            (
                "repro_bench_savings_percent",
                "gauge",
                "OTC savings vs the primaries-only scheme.",
                savings,
            ),
            (
                "repro_bench_rounds",
                "gauge",
                "Rounds/iterations of each bench scenario.",
                rounds,
            ),
            (
                "repro_bench_replicas",
                "gauge",
                "Replicas allocated by each bench scenario.",
                replicas,
            ),
            (
                "repro_bench_messages",
                "gauge",
                "Protocol messages (protocol scenario).",
                messages,
            ),
            (
                "repro_bench_bytes",
                "gauge",
                "Protocol bytes (protocol scenario).",
                bytes_,
            ),
            (
                "repro_span_seconds_total",
                "counter",
                "Total seconds recorded under each span path.",
                span_seconds,
            ),
        ]
    )


_METRIC_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"


def lint_openmetrics(text: str) -> list[str]:
    """Check OpenMetrics exposition invariants; returns problems found.

    Enforced: the document ends with ``# EOF``; every sample line names
    a valid metric; every sampled metric has exactly one prior ``# TYPE``
    declaration; values parse as floats.
    """
    import re

    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        problems.append("document must end with '# EOF'")
    typed: set[str] = set()
    sample_re = re.compile(
        rf"^({_METRIC_NAME})(?:\{{.*\}})? (\S+)(?: \d+(?:\.\d+)?)?$"
    )
    for i, line in enumerate(lines, start=1):
        if not line or line == "# EOF":
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not re.fullmatch(_METRIC_NAME, parts[2]):
                problems.append(f"line {i}: malformed TYPE line")
            elif parts[2] in typed:
                problems.append(f"line {i}: duplicate TYPE for {parts[2]}")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        m = sample_re.match(line)
        if not m:
            problems.append(f"line {i}: malformed sample line")
            continue
        name = m.group(1)
        family = name
        for suffix in ("_total", "_count", "_sum", "_bucket", "_created"):
            if name.endswith(suffix):
                family = name[: -len(suffix)]
                break
        if name not in typed and family not in typed:
            problems.append(f"line {i}: sample for undeclared metric {name}")
        try:
            float(m.group(2))
        except ValueError:
            problems.append(f"line {i}: non-numeric value {m.group(2)!r}")
    return problems
