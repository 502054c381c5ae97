"""Columnar pipeline tests: binary codec round-trips, JSONL rotation,
windowed/streaming audit equivalence and buffered-vs-oracle emission
identity.

The contracts under test (docs/observability.md):

* the ``REVB`` binary codec decodes back to the *same typed events* for
  every registered kind and any field values (property-based);
* a rotated JSONL log is a set of self-contained chunks whose
  concatenated replay equals the unrotated stream, re-discoverable from
  the logical path alone;
* windowing the audit never changes its verdicts — only when partial
  reports surface;
* the buffered columnar stream of a real mechanism run is
  byte-equivalent to the reference oracle's per-object stream.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_files, audit_stream
from repro.obs.events import (
    EVENT_TYPES,
    ColumnarRoundBuffer,
    WinnerEvent,
    iter_block_events,
)
from repro.obs.export import (
    BINARY_MAGIC,
    RotatingJsonlWriter,
    chunk_path,
    event_log_chunks,
    iter_events_binary,
    open_event_stream,
    read_events_binary,
    read_events_jsonl,
    write_events_binary,
    write_events_jsonl,
)


@pytest.fixture(scope="module")
def tiny_events():
    """The event stream of one real tiny-preset AGT-RAM run."""
    from repro.core.agt_ram import AGTRam
    from repro.experiments.instances import paper_instance
    from repro.obs.report import bench_config

    instance = paper_instance(bench_config("tiny"))
    with ev.logical_time():
        with ev.capture(ev.ColumnarSink()) as sink:
            AGTRam().run(instance)
    return list(sink.iter_events())


# -- binary codec ------------------------------------------------------------

_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# Object/agent indices: ReauctionEvent coerces them through int(), so
# keep them in a realistic range rather than the full i64 span.
_INDEX = st.integers(min_value=-1, max_value=10_000)

#: One strategy per field-annotation shape the codec supports; every
#: event field resolves through this table, so a new field shape fails
#: loudly here before it can fail silently in the codec.
_FIELD_STRATEGIES: dict[str, st.SearchStrategy] = {
    "float": st.floats(allow_nan=False, width=64),
    "int": _INT64,
    "bool": st.booleans(),
    "str": st.text(max_size=30),
    "tuple[int, ...]": st.lists(_INDEX, max_size=6).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_INDEX, _INDEX), max_size=6
    ).map(tuple),
}


def _event_strategy(cls) -> st.SearchStrategy:
    return st.builds(
        cls, **{f.name: _FIELD_STRATEGIES[f.type] for f in fields(cls)}
    )


arbitrary_events = st.lists(
    st.one_of([_event_strategy(cls) for cls in EVENT_TYPES.values()]),
    max_size=12,
)


class TestBinaryCodec:
    def test_every_registered_kind_round_trips(self, tmp_path):
        events = [cls(t=0.25) for cls in EVENT_TYPES.values()]
        path = write_events_binary(events, tmp_path / "defaults.rev")
        assert read_events_binary(path) == events

    @given(events=arbitrary_events)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_lossless(self, events, tmp_path_factory):
        path = tmp_path_factory.mktemp("rev") / "log.rev"
        write_events_binary(events, path)
        decoded = read_events_binary(path)
        assert decoded == events
        # Not just equal: same concrete kinds, same serialized form.
        assert [e.to_dict() for e in decoded] == [e.to_dict() for e in events]

    def test_real_run_round_trips_and_beats_jsonl(self, tiny_events, tmp_path):
        jsonl = write_events_jsonl(tiny_events, tmp_path / "run.jsonl")
        binary = write_events_binary(tiny_events, tmp_path / "run.rev")
        assert read_events_binary(binary) == tiny_events
        assert read_events_jsonl(jsonl) == tiny_events
        assert binary.stat().st_size < jsonl.stat().st_size

    def test_open_event_stream_sniffs_both_formats(self, tiny_events, tmp_path):
        jsonl = write_events_jsonl(tiny_events, tmp_path / "run.jsonl")
        binary = write_events_binary(tiny_events, tmp_path / "run.rev")
        assert list(open_event_stream(binary)) == tiny_events
        assert list(open_event_stream(jsonl)) == tiny_events

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bogus.rev"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="binary event log"):
            list(iter_events_binary(p))

    def test_newer_container_version_rejected(self, tmp_path):
        p = tmp_path / "future.rev"
        p.write_bytes(BINARY_MAGIC + bytes([99]) + b"\x00\x00")
        with pytest.raises(ValueError, match="newer than supported"):
            list(iter_events_binary(p))

    def test_unknown_kind_tag_rejected(self, tmp_path):
        p = tmp_path / "alien.rev"
        tag = b"martian"
        p.write_bytes(
            BINARY_MAGIC + bytes([1]) + b"\x01\x00" + bytes([len(tag)]) + tag
        )
        with pytest.raises(ValueError, match="unknown event kind"):
            list(iter_events_binary(p))

    def test_truncated_record_rejected(self, tmp_path, tiny_events):
        full = write_events_binary(tiny_events, tmp_path / "full.rev")
        cut = tmp_path / "cut.rev"
        cut.write_bytes(full.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            list(iter_events_binary(cut))


# -- JSONL rotation ----------------------------------------------------------


class TestRotation:
    def test_chunk_naming(self):
        assert chunk_path("events.jsonl", 0).name == "events.part00000.jsonl"
        assert chunk_path("a/b/log.jsonl", 12).name == "log.part00012.jsonl"

    def test_no_limits_writes_single_file(self, tiny_events, tmp_path):
        logical = tmp_path / "plain.jsonl"
        with RotatingJsonlWriter(logical) as w:
            w.write_all(tiny_events)
        assert w.paths == [logical]
        assert event_log_chunks(logical) == [logical]
        assert read_events_jsonl(logical) == tiny_events

    def test_rotate_by_events(self, tiny_events, tmp_path):
        logical = tmp_path / "rot.jsonl"
        with RotatingJsonlWriter(logical, max_events=50) as w:
            w.write_all(tiny_events)
        assert len(w.paths) == math.ceil(len(tiny_events) / 50)
        # Each chunk is a self-contained log; concatenated replay is
        # the original stream; the chunk set is re-discoverable from
        # the logical path alone.
        replay = [e for p in w.paths for e in read_events_jsonl(p)]
        assert replay == tiny_events
        assert event_log_chunks(logical) == w.paths

    def test_rotate_by_bytes_never_splits_an_event(self, tiny_events, tmp_path):
        logical = tmp_path / "rotb.jsonl"
        with RotatingJsonlWriter(logical, max_bytes=4096) as w:
            w.write_all(tiny_events)
        assert len(w.paths) > 1
        replay = [e for p in event_log_chunks(logical) for e in read_events_jsonl(p)]
        assert replay == tiny_events

    def test_zero_events_yields_valid_empty_log(self, tmp_path):
        logical = tmp_path / "empty.jsonl"
        with RotatingJsonlWriter(logical):
            pass
        assert read_events_jsonl(logical) == []

    def test_missing_log_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            event_log_chunks(tmp_path / "never.jsonl")


# -- windowed / streaming audit ----------------------------------------------


class TestWindowedAudit:
    def test_windowing_never_changes_the_verdict(self, tiny_events):
        whole = audit_events(tiny_events)
        assert whole.ok
        for window in (1, 5, 64, 10_000):
            assert audit_stream(iter(tiny_events), window=window) == whole

    def test_window_callback_streams_partial_reports(self, tiny_events):
        marks = []
        report = audit_stream(
            iter(tiny_events),
            window=4,
            on_window=lambda rounds, rep: marks.append((rounds, rep.ok)),
        )
        assert marks, "windowed audit fired no callbacks"
        assert [m[0] for m in marks] == sorted(m[0] for m in marks)
        assert marks[-1][0] <= report.rounds_audited

    def test_multi_chunk_audit_equals_whole_log(self, tiny_events, tmp_path):
        logical = tmp_path / "chunked.jsonl"
        with RotatingJsonlWriter(logical, max_events=40) as w:
            w.write_all(tiny_events)
        assert len(w.paths) > 2
        assert audit_files([logical], window=8) == audit_events(tiny_events)

    def test_mixed_format_chain(self, tiny_events, tmp_path):
        mid = len(tiny_events) // 2
        first = write_events_jsonl(tiny_events[:mid], tmp_path / "a.jsonl")
        second = write_events_binary(tiny_events[mid:], tmp_path / "b.rev")
        assert audit_files([first, second]) == audit_events(tiny_events)

    def test_corrupt_log_fails_windowed_and_whole_alike(self, tiny_events):
        tampered = [
            replace(e, value=e.value + 1.0) if isinstance(e, WinnerEvent) else e
            for e in tiny_events
        ]
        whole = audit_events(tampered)
        assert not whole.ok
        assert audit_stream(iter(tampered), window=3) == whole

    def test_negative_window_rejected(self, tiny_events):
        with pytest.raises(ValueError, match="window"):
            audit_stream(iter(tiny_events), window=-1)


# -- buffered vs oracle emission ---------------------------------------------


class TestEmissionIdentity:
    def test_same_seed_buffered_stream_is_byte_identical(self):
        from repro.core.agt_ram import run_agt_ram
        from repro.experiments.instances import paper_instance
        from repro.obs.equivalence import reference_agt_ram
        from repro.obs.report import bench_config

        instance = paper_instance(bench_config("tiny"))
        with ev.logical_time():
            with ev.capture() as oracle:
                oracle_result = reference_agt_ram(instance)
        with ev.logical_time():
            with ev.capture() as columnar:
                columnar_result = run_agt_ram(instance)
        # The oracle emits loose per-decision events; production flushes
        # RoundBlocks that expand to the same stream.
        assert not oracle.blocks() and columnar.blocks()
        assert [e.to_dict() for e in columnar.iter_events()] == [
            e.to_dict() for e in oracle.iter_events()
        ]
        assert columnar_result.otc == oracle_result.otc

    def test_compare_emission_paths_identity(self):
        from repro.obs.equivalence import compare_engines_at_scale

        cmp = compare_engines_at_scale("tiny", repeats=1)
        assert cmp.identical, cmp.mismatches
        assert cmp.audit_ok
        assert cmp.events_compared > 0 and cmp.rounds > 0


# -- the round buffer --------------------------------------------------------


def _stage_sample_rounds(buffer: ColumnarRoundBuffer) -> None:
    inf = math.inf
    buffer.stage([1.5, -inf, 2.5], [0, 0, 2])
    buffer.commit(winner=2, obj=2, residual_before=20, payment=1.5, otc=90.0)
    buffer.stage([0.5, 3.25, -inf], [1, 1, 0])
    buffer.commit(winner=1, obj=1, residual_before=13, payment=0.5, otc=84.0)
    buffer.stage([-inf, -inf, -inf], [0, 0, 0])
    buffer.close(otc=84.0)


def _expand_without_time(buffer: ColumnarRoundBuffer) -> list[dict]:
    block = buffer.flush()
    assert block is not None
    out = []
    for event in iter_block_events(block):
        d = event.to_dict()
        d.pop("t")
        out.append(d)
    return out


class TestBufferBackends:
    SIZES = [5, 7, 9]

    def test_stage_counts_finite_reports(self):
        buffer = ColumnarRoundBuffer(3, self.SIZES)
        _stage_sample_rounds(buffer)
        assert buffer.n_bids[:3].tolist() == [2, 2, 0]
        events = _expand_without_time(buffer)
        bids = [d for d in events if d["type"] == "bid"]
        assert [(d["round"], d["agent"]) for d in bids] == [
            (0, 0), (0, 2), (1, 0), (1, 1),
        ]

    def test_flush_rearms_and_advances_base_round(self):
        buffer = ColumnarRoundBuffer(3, self.SIZES, capacity=2)
        _stage_sample_rounds_first_two = [
            ([1.5, -math.inf, 2.5], (2, 2, 20, 1.5, 90.0)),
            ([0.5, 3.25, -math.inf], (1, 1, 13, 0.5, 84.0)),
        ]
        for vals, commit in _stage_sample_rounds_first_two:
            buffer.stage(vals, [0, 1, 2])
            buffer.commit(*commit)
        assert buffer.full
        first = _expand_without_time(buffer)
        buffer.stage([-math.inf] * 3, [0, 0, 0])
        buffer.close(otc=84.0)
        second = _expand_without_time(buffer)
        rounds = [d["round"] for d in first + second if d["type"] == "round_start"]
        assert rounds == [0, 1, 2]
        assert buffer.flush() is None

    def test_empty_flush_is_none(self):
        assert ColumnarRoundBuffer(2, [1, 1]).flush() is None
