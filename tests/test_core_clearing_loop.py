"""Byte-identity pins for AGT-RAM's single clearing loop.

Every B = 1 run — truthful or strategic, either payment rule, local or
global valuation, audited, traced, warm-started — goes through one
clearing loop that stages events in a columnar ring.  Each case below
pins the expanded event stream under logical time to a sha256 digest
recorded before the loops were merged, when these configurations still
ran the per-object loop, so the merge is proven not to move a single
byte.  Every pinned stream must also pass the offline audit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.core.strategies import OverProjection
from repro.drp.state import ReplicationState
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.obs.audit import audit_events
from repro.obs.report import bench_config


@pytest.fixture(scope="module")
def instance():
    return paper_instance(bench_config("tiny"))


def _warm_state(instance):
    """Replicas of objects the auction later commits again (4, 15, 30),
    so the flush ledger must replay warm relax chains."""
    state = ReplicationState.primaries_only(instance)
    for server, obj in [(1, 4), (9, 15), (12, 30), (2, 40), (11, 63)]:
        state.add_replica(server, obj)
    return state


def _traced(instance):
    with obs.capture():
        return run_agt_ram(instance)


CASES = {
    "strategic": (
        lambda inst: run_agt_ram(
            inst, strategies={3: OverProjection(1.5), 9: OverProjection(2.0)}
        ),
        "882fd47569c0b67af91f118ec6d3404b5597a548fbe177888368a5d21f5be084",
    ),
    "record_audit": (
        lambda inst: run_agt_ram(inst, record_audit=True),
        "593cbc127df7f6861812f8cdf248456fdce5bc8d57a2a094a58085311769c630",
    ),
    "warm_start": (
        lambda inst: AGTRam().run(inst, initial_state=_warm_state(inst)),
        "54b4d418936f32afb66bd9c8314465099bec12827ff8b5c52d667d0cf5c42075",
    ),
    "traced": (
        _traced,
        "593cbc127df7f6861812f8cdf248456fdce5bc8d57a2a094a58085311769c630",
    ),
    "first_price": (
        lambda inst: run_agt_ram(inst, payment_rule="first_price"),
        "a91c4b9231ab107da78a9645046bf03c64c39343ebbab0169fbdeefd17e2124b",
    ),
    "global": (
        lambda inst: run_agt_ram(inst, valuation="global"),
        "02344d895677275f0d1b46966198b3c5b73bf3c0cbe6d276be24ff0c5c5a6075",
    ),
    "batched": (
        lambda inst: AGTRam(batch_size=2).run(inst, record_audit=True),
        "d248ef30b338e929d6b103751af12d3adae4797956e2ce455c2b9985127d0d93",
    ),
}


def _stream(run, instance):
    with ev.logical_time(), ev.capture() as sink:
        result = run(instance)
    events = list(sink.iter_events())
    blob = "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in events)
    return result, events, hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_matches_pinned_digest(instance, case):
    run, digest = CASES[case]
    _, events, got = _stream(run, instance)
    assert got == digest
    report = audit_events(events)
    if case == "first_price":
        # The audit flags pay-your-bid as non-truthful by design; every
        # other invariant (argmax winners, capacity) must still hold.
        assert report.violations
        assert all(
            v.kind == "payment" and "first_price" in v.detail
            for v in report.violations
        )
    else:
        assert report.ok, report.summary()


def test_traced_run_is_the_production_loop(instance):
    plain = run_agt_ram(instance)
    with obs.capture() as tracer:
        traced = run_agt_ram(instance)
    np.testing.assert_array_equal(plain.state.x, traced.state.x)
    np.testing.assert_array_equal(
        plain.extra["payments"], traced.extra["payments"]
    )
    assert plain.rounds == traced.rounds
    spans = tracer.snapshot()["spans"]
    assert not any("round/" in path for path in spans)
    assert spans["mechanism/AGT-RAM/clearing_loop"]["count"] == 1


def test_traced_eventing_run_spans_one_per_flush(instance):
    with obs.capture() as tracer, ev.capture() as sink:
        run_agt_ram(instance)
    spans = tracer.snapshot()["spans"]
    flushes = spans["mechanism/AGT-RAM/clearing_loop/flush"]["count"]
    assert flushes == len(sink.blocks()) >= 1
    assert not any("round/" in path for path in spans)


def test_warm_start_leaves_tracker_unarmed(instance):
    # The loop settles OTC in its own ledger; a warm state handed in
    # untracked stays untracked.
    state = _warm_state(instance)
    with ev.capture():
        AGTRam().run(instance, initial_state=state)
    assert not state._otc_track
