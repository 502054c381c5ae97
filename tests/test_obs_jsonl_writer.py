"""Byte identity of the streamed JSONL writer.

The writer renders each event kind from its field plan, and a
``RoundBlock``'s rounds straight from the block columns.  Both must
produce exactly the bytes of the pre-plan serialization — ``asdict``
plus the ``type`` tag through ``json.dumps(..., sort_keys=True)`` — for
any field values, on every captured run shape and under rotation.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.core.strategies import OverProjection
from repro.drp.state import ReplicationState
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs.export import (
    RotatingJsonlWriter,
    read_events_jsonl,
    write_events_jsonl,
)
from repro.obs.report import bench_config

_HEADER = json.dumps(
    {"kind": "repro-events", "schema_version": ev.EVENT_SCHEMA_VERSION},
    sort_keys=True,
) + "\n"


def legacy_line(event: ev.Event) -> str:
    """The pre-plan record: ``asdict`` plus ``type``, keys sorted."""
    record = {**dataclasses.asdict(event), "type": event.type}
    return json.dumps(record, sort_keys=True) + "\n"


def legacy_log(events) -> str:
    return _HEADER + "".join(legacy_line(e) for e in events)


# -- every kind, hostile field values ----------------------------------------

_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 2.0**53]
    ),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-(2**60), 2**60),
)
_BIG_INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**53, 2**53 + 1, -(2**63), 2**64]),
    st.booleans(),
)
_TEXT = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["", "é✓ü", "\x00\x1f\t\n", '"\\/', "\ud800", "%s%%"]),
)
_ITEMS = st.integers(-(2**60), 2**60)
_FIELD_VALUES = {
    "float": _FLOATS,
    "int": _BIG_INTS,
    "bool": st.booleans(),
    "str": _TEXT,
    "tuple[int, ...]": st.one_of(
        st.lists(_ITEMS, max_size=8), st.lists(_ITEMS, min_size=200, max_size=300)
    ).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(
        st.tuples(_ITEMS, _ITEMS), max_size=8
    ).map(tuple),
}


def _kind(cls) -> st.SearchStrategy:
    return st.builds(
        cls, **{f.name: _FIELD_VALUES[f.type] for f in fields(cls)}
    )


any_events = st.lists(
    st.one_of([_kind(cls) for cls in ev.EVENT_TYPES.values()]), max_size=10
)


@given(events=any_events)
@settings(max_examples=150, deadline=None)
def test_line_formatter_matches_legacy_serialization(events, tmp_path_factory):
    path = tmp_path_factory.mktemp("jsonl") / "log.jsonl"
    write_events_jsonl(events, path)
    assert path.read_text(encoding="utf-8") == legacy_log(events)
    for e in events:
        assert e.to_dict() == {**dataclasses.asdict(e), "type": e.type}


def test_every_kind_with_defaults(tmp_path):
    events = [cls(t=0.5) for cls in ev.EVENT_TYPES.values()]
    path = write_events_jsonl(events, tmp_path / "defaults.jsonl")
    assert path.read_text() == legacy_log(events)
    assert read_events_jsonl(path) == events


# -- block path == per-event path on captured runs ---------------------------


@pytest.fixture(scope="module")
def instance():
    return paper_instance(bench_config("tiny"))


def _warm_state(instance):
    state = ReplicationState.primaries_only(instance)
    for server, obj in [(1, 4), (9, 15), (12, 30), (2, 40), (11, 63)]:
        state.add_replica(server, obj)
    return state


RUNS = {
    "flat": run_agt_ram,
    "first_price": lambda inst: run_agt_ram(inst, payment_rule="first_price"),
    "strategic": lambda inst: run_agt_ram(
        inst, strategies={3: OverProjection(1.5), 9: OverProjection(2.0)}
    ),
    "warm_start": lambda inst: AGTRam().run(
        inst, initial_state=_warm_state(inst)
    ),
}


@pytest.mark.parametrize("clock", ["logical", "wall"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_block_path_matches_per_event_path(instance, run, clock, tmp_path):
    sink = ev.ColumnarSink()
    if clock == "logical":
        with ev.logical_time(), ev.capture(sink):
            RUNS[run](instance)
    else:
        with ev.capture(sink):
            RUNS[run](instance)
    assert sink.blocks(), "the run must exercise the block path"
    events = sink.events
    blocks = write_events_jsonl(sink.iter_events(), tmp_path / "blocks.jsonl")
    loose = write_events_jsonl(events, tmp_path / "events.jsonl")
    assert blocks.read_text() == loose.read_text() == legacy_log(events)


def _block(**changes) -> ev.RoundBlock:
    sizes = np.array([2.0, 1.0, 4.0, 1.0])  # float sizes render as ints
    buf = ev.ColumnarRoundBuffer(3, sizes, payment_rule="uniform")
    buf.stage(np.array([1.5, -np.inf, 0.25]), np.array([0, 0, 2]))
    buf.commit(winner=0, obj=0, residual_before=7, payment=np.inf, otc=9.5)
    buf.stage(np.array([np.nan, -0.0, 5e-324]), np.array([1, 3, 1]))
    buf.commit(winner=2, obj=1, residual_before=5, payment=-0.0, otc=np.nan)
    buf.stage(np.full(3, -np.inf), np.zeros(3, dtype=int))
    buf.close(otc=1e16)
    return dataclasses.replace(buf.flush(), **changes)


@pytest.mark.parametrize(
    "t0, step",
    [(0.0, 1.0), (0.1, 0.1), (1e9 + 0.3, 0.0), (2.0**60, 3.3), (-5.0, 0.7),
     (math.inf, 1.0), (0.0, math.nan), (1e299, 1e299)],
)
def test_block_columns_render_like_expanded_events(t0, step, tmp_path):
    block = _block(t0=t0, t_step=step)
    sink = ev.ColumnarSink()
    sink.emit(ev.RunStart(t=0.0, algorithm="x"))
    sink.emit_block(block)
    events = list(ev.iter_block_events(block))
    path = write_events_jsonl(sink.iter_events(), tmp_path / "block.jsonl")
    assert path.read_text() == legacy_log([sink.events[0], *events])


def test_a_started_stream_writes_only_the_rest(instance, tmp_path):
    with ev.logical_time(), ev.capture() as sink:
        run_agt_ram(instance)
    events = sink.events
    stream = sink.iter_events()
    assert next(stream) == events[0]
    path = write_events_jsonl(stream, tmp_path / "rest.jsonl")
    assert path.read_text() == legacy_log(events[1:])
    fresh = sink.iter_events()
    write_events_jsonl(fresh, tmp_path / "all.jsonl")
    assert list(fresh) == []  # the writer consumed it


# -- rotation ----------------------------------------------------------------


@pytest.mark.parametrize(
    "limits", [{"max_bytes": 4096}, {"max_events": 37}, {}]
)
def test_rotated_chunks_concatenate_to_the_single_file_log(
    instance, limits, tmp_path
):
    with ev.logical_time(), ev.capture() as sink:
        run_agt_ram(instance)
    assert sink.blocks()
    single = write_events_jsonl(sink.iter_events(), tmp_path / "one.jsonl")
    via_blocks = tmp_path / "blocks" / "log.jsonl"
    via_events = tmp_path / "events" / "log.jsonl"
    writes = {
        via_blocks: lambda w: w.write_all(sink.iter_events()),
        via_events: lambda w: [w.write(e) for e in sink.events],
    }
    for logical, write in writes.items():
        logical.parent.mkdir()
        with RotatingJsonlWriter(logical, **limits) as writer:
            write(writer)
        chunks = [p.read_text() for p in writer.paths]
        assert all(c.startswith(_HEADER) for c in chunks)
        body = "".join(c[len(_HEADER):] for c in chunks)
        assert _HEADER + body == single.read_text()
        if limits.get("max_bytes"):
            assert len(chunks) > 1
            assert all(
                len(c) <= limits["max_bytes"] or c.count("\n") == 2
                for c in chunks
            )
    assert [p.name for p in sorted(via_blocks.parent.iterdir())] == [
        p.name for p in sorted(via_events.parent.iterdir())
    ]
    for a, b in zip(
        sorted(via_blocks.parent.iterdir()), sorted(via_events.parent.iterdir())
    ):
        assert a.read_bytes() == b.read_bytes()
