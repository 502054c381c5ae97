"""Tests for agent reports and the Mechanism/audit abstractions."""

import numpy as np
import pytest

from repro.core.mechanism import MechanismAudit, RoundRecord
from repro.core.strategies import OverProjection, UnderProjection
from repro.drp.delta import DeltaBenefitEngine
from repro.drp.state import ReplicationState
from repro.errors import MechanismProtocolError
from repro.obs import events as ev
from repro.runtime.adversary import MessageValidator
from repro.runtime.messages import BidMessage
from repro.runtime.simulator import SemiDistributedSimulator


@pytest.fixture()
def engine(line_instance):
    state = ReplicationState.primaries_only(line_instance)
    return DeltaBenefitEngine(line_instance, state)


def _run_events(instance):
    with ev.logical_time(), ev.capture() as sink:
        result = SemiDistributedSimulator().run(instance)
    return result, list(sink.iter_events())


class TestReplicaAgent:
    """An agent's report in the message-level runtime: its dominant
    valuation over L_i, one sealed bid per round."""

    def test_truthful_bid_is_argmax(self, line_instance, engine):
        _, events = _run_events(line_instance)
        bids = {
            e.agent: e
            for e in events
            if isinstance(e, ev.BidEvent) and e.round == 0
        }
        bid = bids[2]
        assert bid.obj == 0 and bid.value == pytest.approx(10.0)
        assert bid.obj == int(np.argmax(engine.row(2)))

    def test_true_valuations_copy(self, engine):
        v = engine.row(1)
        v[:] = 0  # mutating the copy must not corrupt the engine
        assert engine.row(1)[0] != 0

    def test_strategy_scales_report(self, engine):
        reported = OverProjection(2.0).report(engine.row(2))
        assert reported.max() == pytest.approx(20.0)

    def test_abstains_when_no_eligible(self, line_instance):
        state = ReplicationState.primaries_only(line_instance)
        state.add_replica(1, 0)
        state.add_replica(1, 1)  # server 1 full
        vals, _ = DeltaBenefitEngine(line_instance, state).best_per_server()
        assert not np.isfinite(vals[1])  # empty L_i: no bid to send

    def test_award_bookkeeping(self, line_instance):
        result, events = _run_events(line_instance)
        winners = [e for e in events if isinstance(e, ev.WinnerEvent)]
        paid = [e for e in events if isinstance(e, ev.PaymentEvent)]
        assert winners and len(winners) == len(paid)
        for w, p in zip(winners, paid):
            assert p.agent == w.agent
            assert w.value - p.amount >= 0.0  # Theorem-5 utility
        for agent in range(line_instance.n_servers):
            assert result.extra["payments"][agent] == pytest.approx(
                sum(p.amount for p in paid if p.agent == agent)
            )

    def test_award_ineligible_rejected(self, line_instance):
        state = ReplicationState.primaries_only(line_instance)
        bid = BidMessage(sender=0, receiver=-1, obj=0, value=9.0)
        accepted, events = MessageValidator(line_instance).screen(
            [bid], state, 0
        )
        assert accepted == []  # server 0 already hosts object 0
        assert [e.kind for e in events] == ["feasibility"]


class TestMechanismAudit:
    def make_audit(self):
        audit = MechanismAudit()
        audit.append(
            RoundRecord(
                reported=np.array([1.0, 5.0]),
                objects=np.array([0, 1]),
                winner=1,
                obj=1,
                payment=1.0,
                true_value=5.0,
            )
        )
        audit.append(
            RoundRecord(
                reported=np.array([2.0, -np.inf]),
                objects=np.array([0, -1]),
                winner=0,
                obj=0,
                payment=0.0,
                true_value=2.0,
            )
        )
        audit.append(
            RoundRecord(
                reported=np.array([-np.inf, -np.inf]),
                objects=np.array([-1, -1]),
                winner=-1,
                obj=-1,
                payment=0.0,
                true_value=0.0,
            )
        )
        return audit

    def test_len(self):
        assert len(self.make_audit()) == 3

    def test_total_payments_skips_terminal(self):
        assert self.make_audit().total_payments() == 1.0

    def test_payments_by_agent(self):
        p = self.make_audit().payments_by_agent(2)
        assert np.array_equal(p, [0.0, 1.0])

    def test_utilities_by_agent(self):
        u = self.make_audit().utilities_by_agent(2)
        assert u[1] == pytest.approx(4.0)
        assert u[0] == pytest.approx(2.0)
