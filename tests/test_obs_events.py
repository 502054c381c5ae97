"""Unit tests for the repro.obs event stream."""

from __future__ import annotations

import json

import pytest

from repro.obs import events as ev


class TestEventRecords:
    @pytest.mark.parametrize(
        "event",
        [
            ev.RunStart(t=1.0, algorithm="AGT-RAM"),
            ev.RunEnd(t=2.0, algorithm="AGT-RAM", otc=123.5, rounds=7),
            ev.RoundStart(t=1.1, round=3),
            ev.BidEvent(t=1.2, round=3, agent=4, obj=9, value=2.5),
            ev.WinnerEvent(
                t=1.3, round=3, agent=4, obj=9, value=2.5,
                obj_size=2, residual_before=10,
            ),
            ev.PaymentEvent(t=1.4, round=3, agent=4, amount=1.75),
            ev.NNUpdateEvent(t=1.5, round=3, obj=9, agents=16),
            ev.CapacityReject(
                t=1.6, round=3, agent=5, obj=9, obj_size=4, residual=1,
            ),
            ev.RoundEnd(t=1.7, round=3, committed=1, otc=120.0),
            ev.ValidationEvent(
                t=1.8, round=3, agent=5, kind="schema", obj=99, value=2.0,
                detail="object id 99 out of range",
            ),
            ev.ManipulationEvent(
                t=1.9, round=3, agent=5, kind="misreport", obj=9,
                reported=7.5, recomputed=2.5,
            ),
            ev.QuarantineEvent(
                t=2.0, round=3, agent=5, action="quarantine", strikes=3,
                until_round=24,
            ),
            ev.AdversaryEvent(
                t=2.1, round=3, agent=5, behavior="inflate", obj=9,
                value=5.0, detail="",
            ),
            ev.ServeStart(
                t=3.0, workload="worldcup", n_requests=1000, n_servers=4,
                n_objects=8, primaries=(0, 1, 2, 3, 0, 1, 2, 3),
                replicas=((0, 1), (2, 5)),
            ),
            ev.ServeEnd(
                t=4.0, served=990, shed=5, failed=5, hedges=12,
                failovers=3, reauctions=1, availability=0.995,
                p50=1.5, p99=9.0,
            ),
            ev.RequestEvent(
                t=3.1, tick=7, client=12, server=2, obj=5, kind="read",
                replica=2, latency=1.25, attempts=2, hedged=True,
                outcome="ok",
            ),
            ev.RequestTimeout(t=3.2, tick=7, obj=5, replica=3, attempt=1,
                              deadline=8.0),
            ev.HedgeEvent(t=3.3, tick=7, obj=5, primary=3, backup=2,
                          winner=2, threshold=4.5),
            ev.ShedEvent(t=3.4, tick=8, client=12, obj=5, kind="write",
                         tokens=0.25),
            ev.FailoverEvent(t=3.5, tick=7, obj=5, from_server=3,
                             to_server=2, reason="timeout"),
            ev.ReauctionEvent(
                t=3.6, tick=500, trigger="drift", objects=(5, 6),
                added=((2, 5),), removed=((3, 6),), otc_before=100.0,
                otc_after=90.0, rounds=2,
            ),
        ],
    )
    def test_round_trips_through_dict(self, event):
        d = event.to_dict()
        assert d["type"] == type(event).type
        json.dumps(d)  # JSON-safe
        assert ev.parse_event(d) == event

    def test_parse_ignores_unknown_extra_keys(self):
        d = ev.BidEvent(t=1.0, round=0, agent=1, obj=2, value=3.0).to_dict()
        d["future_field"] = "whatever"
        parsed = ev.parse_event(d)
        assert isinstance(parsed, ev.BidEvent)
        assert parsed.agent == 1

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(ValueError, match="unknown event type"):
            ev.parse_event({"type": "no_such_event", "t": 0.0})
        with pytest.raises(ValueError):
            ev.parse_event({"t": 0.0})

    def test_every_type_tag_is_registered_and_unique(self):
        assert len(ev.EVENT_TYPES) == 30
        for tag, cls in ev.EVENT_TYPES.items():
            assert cls.type == tag
        # The five fault-layer events are part of the vocabulary.
        for tag in ("fault", "timeout", "election", "checkpoint", "recovery"):
            assert tag in ev.EVENT_TYPES
        # ... as are the four Byzantine-layer events.
        for tag in ("validation", "manipulation", "quarantine", "adversary"):
            assert tag in ev.EVENT_TYPES
        # ... and the eight serving-layer events.
        for tag in (
            "serve_start", "serve_end", "request", "request_timeout",
            "hedge", "shed", "failover", "reauction",
        ):
            assert tag in ev.EVENT_TYPES
        # ... and the three sharded-central events.
        for tag in ("partition", "heal", "reconcile"):
            assert tag in ev.EVENT_TYPES


class TestSinkRegistry:
    def test_default_sink_is_null_and_disabled(self):
        assert ev.current() is ev.NULL_SINK
        assert not ev.NULL_SINK.enabled
        ev.NULL_SINK.emit(ev.RoundStart(t=0.0, round=0))  # no-op, no error

    def test_capture_installs_and_restores(self):
        before = ev.current()
        with ev.capture() as sink:
            assert ev.current() is sink
            assert sink.enabled
            sink.emit(ev.RoundStart(t=0.0, round=0))
        assert ev.current() is before
        assert len(sink) == 1

    def test_capture_accepts_existing_sink(self):
        mine = ev.ColumnarSink()
        with ev.capture(mine) as sink:
            assert sink is mine

    def test_capture_restores_on_exception(self):
        with pytest.raises(ValueError):
            with ev.capture():
                raise ValueError("boom")
        assert ev.current() is ev.NULL_SINK

    def test_install_returns_previous_and_none_restores_null(self):
        mine = ev.ColumnarSink()
        previous = ev.install(mine)
        try:
            assert ev.current() is mine
        finally:
            assert ev.install(None) is mine
        assert ev.current() is ev.NULL_SINK

    def test_sinks_are_contextvar_isolated_across_threads(self):
        import threading

        seen = {}

        def worker(name):
            with ev.capture() as sink:
                ev.current().emit(ev.RoundStart(t=0.0, round=hash(name) % 100))
                seen[name] = sink.events

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ev.current() is ev.NULL_SINK
        for events in seen.values():
            assert len(events) == 1


class TestRoundSeries:
    def test_append_and_len(self):
        s = ev.RoundSeries()
        s.append(otc=10.0, best_bid=2.0, payment=1.0, n_bids=3)
        s.append(otc=8.0, best_bid=1.5, payment=0.5, n_bids=2)
        assert len(s) == 2
        assert s.otc == [10.0, 8.0]
        assert s.n_bids == [3, 2]

    def test_to_dict_omits_unused_protocol_series(self):
        s = ev.RoundSeries()
        s.append(otc=1.0, best_bid=1.0, payment=0.0, n_bids=1)
        d = s.to_dict()
        assert set(d) == {"otc", "best_bid", "payment", "n_bids"}
        # Protocol message/byte accounting lives on RuntimeMetrics, not
        # on the round series.
        s.append(otc=0.5, best_bid=0.5, payment=0.0, n_bids=1)
        d = s.to_dict()
        assert set(d) == {"otc", "best_bid", "payment", "n_bids"}
        assert d["otc"] == [1.0, 0.5]
        json.dumps(d)


class TestMechanismEmission:
    def test_agt_ram_emits_a_consistent_stream(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram

        with ev.capture() as sink:
            result = run_agt_ram(tiny_instance)
        by_type: dict[str, list] = {}
        for e in sink.events:
            by_type.setdefault(type(e).type, []).append(e)
        assert len(by_type["run_start"]) == len(by_type["run_end"]) == 1
        # One winner + payment + nn_update per committed round.
        assert len(by_type["winner"]) == result.rounds
        assert len(by_type["payment"]) == result.rounds
        assert len(by_type["nn_update"]) == result.rounds
        # Rounds: every committed round plus the terminating one.
        assert len(by_type["round_start"]) == len(by_type["round_end"])
        assert len(by_type["round_end"]) == result.rounds + 1
        # Timestamps are non-decreasing in emission order.
        ts = [e.t for e in sink.events]
        assert ts == sorted(ts)
        series = result.extra["round_series"]
        assert len(series) == result.rounds
        assert series.otc[-1] == pytest.approx(result.otc)

    def test_simulator_emits_protocol_series(self, tiny_instance):
        from repro.runtime.simulator import SemiDistributedSimulator

        with ev.capture() as sink:
            result = SemiDistributedSimulator().run(tiny_instance)
        # Per-round protocol accounting lives on the runtime metrics.
        metrics = result.extra["metrics"]
        work = metrics.serial_round_work
        assert len(work) >= result.rounds
        assert all(w > 0 for w in work[: result.rounds])
        assert metrics.log.total_messages() > 0
        assert metrics.log.bytes_total > 0
        winners = [e for e in sink.events if isinstance(e, ev.WinnerEvent)]
        assert len(winners) == result.rounds

    def test_baselines_emit_run_boundaries(self, tiny_instance):
        from repro.baselines.base import make_placer

        with ev.capture() as sink:
            make_placer("Greedy").place(tiny_instance)
        tags = [type(e).type for e in sink.events]
        assert tags[0] == "run_start"
        assert tags[-1] == "run_end"

    def test_disabled_by_default_no_events_no_series(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram

        result = run_agt_ram(tiny_instance)
        assert "round_series" not in result.extra
        assert ev.current() is ev.NULL_SINK

    def test_eventing_does_not_change_results(self, tiny_instance):
        from repro.core.agt_ram import run_agt_ram

        plain = run_agt_ram(tiny_instance)
        with ev.capture():
            evented = run_agt_ram(tiny_instance)
        assert evented.otc == pytest.approx(plain.otc)
        assert evented.rounds == plain.rounds

    def test_batched_mode_emits_uniform_payments(self, tiny_instance):
        from repro.core.agt_ram import AGTRam

        with ev.capture() as sink:
            result = AGTRam(batch_size=4).run(tiny_instance)
        payments = [e for e in sink.events if isinstance(e, ev.PaymentEvent)]
        assert payments, "batched run should pay winners"
        assert all(p.rule == "uniform" for p in payments)
        series = result.extra["round_series"]
        round_ends = [
            e
            for e in sink.events
            if isinstance(e, ev.RoundEnd) and e.committed > 0
        ]
        assert len(series) == len(round_ends)
