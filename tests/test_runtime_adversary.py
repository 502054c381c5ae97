"""Tests for the Byzantine-agent layer: adversary plans, the bid
injector, the validator/detector/quarantine defence, and the
end-to-end bounded-damage guarantees of the hardened simulator."""

import json

import numpy as np
import pytest

from repro.core.agents import Bid
from repro.drp.benefit import BenefitEngine
from repro.drp.feasibility import check_state
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_sharded_events
from repro.runtime.adversary import (
    BEHAVIORS,
    DETECTOR_REL_TOL,
    AdversaryInjector,
    AdversaryPlan,
    AdversarySpec,
    ManipulationDetector,
    MessageValidator,
    QuarantineManager,
    QuarantinePolicy,
    TrustBoundary,
)
from repro.runtime.faults import ChannelConfig, FaultPlan
from repro.runtime.messages import BidMessage
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator


def bid_msg(sender, obj, value, seq=0):
    return BidMessage(sender=sender, receiver=-1, obj=obj, value=value, seq=seq)


class TestAdversarySpec:
    def test_valid(self):
        s = AdversarySpec("inflate", factor=3.0, activity=0.5)
        assert s.behavior == "inflate"

    def test_unknown_behavior(self):
        with pytest.raises(ConfigurationError, match="behavior"):
            AdversarySpec("bribe")

    def test_factor_must_exceed_one(self):
        with pytest.raises(ConfigurationError, match="factor"):
            AdversarySpec("inflate", factor=1.0)

    def test_activity_bounds(self):
        with pytest.raises(ConfigurationError, match="activity"):
            AdversarySpec("inflate", activity=0.0)

    def test_collude_needs_ring(self):
        with pytest.raises(ConfigurationError, match="ring"):
            AdversarySpec("collude")
        AdversarySpec("collude", ring=0)  # fine

    def test_dict_round_trip(self):
        s = AdversarySpec("collude", factor=4.0, activity=0.7, ring=2)
        assert AdversarySpec.from_dict(s.to_dict()) == s
        assert json.loads(json.dumps(s.to_dict())) == s.to_dict()


class TestAdversaryPlan:
    def test_null(self):
        assert AdversaryPlan.null().is_null
        assert not AdversaryPlan(agents={0: AdversarySpec("inflate")}).is_null

    def test_negative_agent_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            AdversaryPlan(agents={-1: AdversarySpec("inflate")})

    def test_random_is_deterministic(self):
        a = AdversaryPlan.random(n_agents=20, fraction=0.3, seed=9)
        b = AdversaryPlan.random(n_agents=20, fraction=0.3, seed=9)
        assert a == b
        assert len(a.agents) == round(0.3 * 20)

    def test_random_fraction_bounds(self):
        with pytest.raises(ConfigurationError, match="fraction"):
            AdversaryPlan.random(n_agents=10, fraction=1.5)

    def test_random_unknown_behavior(self):
        with pytest.raises(ConfigurationError, match="behavior"):
            AdversaryPlan.random(n_agents=10, fraction=0.5, behaviors=("woo",))

    def test_random_folds_singleton_ring(self):
        # With exactly one colluder sampled there is no ring to run;
        # the planner rewrites it to plain inflation.
        plan = AdversaryPlan.random(
            n_agents=10, fraction=0.1, behaviors=("collude",), seed=0
        )
        assert all(s.behavior != "collude" for s in plan.agents.values())

    def test_dict_round_trip(self):
        plan = AdversaryPlan.random(n_agents=16, fraction=0.4, seed=3)
        assert AdversaryPlan.from_dict(plan.to_dict()) == plan
        assert json.loads(json.dumps(plan.to_dict())) == plan.to_dict()

    def test_injector_rejects_out_of_range_agent(self):
        plan = AdversaryPlan(agents={9: AdversarySpec("inflate")})
        with pytest.raises(ConfigurationError, match="out of range"):
            AdversaryInjector(plan, n_agents=4)


class TestMessageValidator:
    def screen(self, instance, bids, state=None):
        state = state or ReplicationState.primaries_only(instance)
        v = MessageValidator(instance)
        return v.screen(bids, state, rnd=0)

    def test_honest_bids_pass(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        obj = int(np.nonzero(~state.x[0].astype(bool))[0][0])
        accepted, events = self.screen(
            tiny_instance, [bid_msg(0, obj, 5.0)], state
        )
        assert len(accepted) == 1 and not events

    def test_unknown_sender(self, tiny_instance):
        accepted, events = self.screen(
            tiny_instance, [bid_msg(99, 0, 1.0)]
        )
        assert not accepted
        assert events[0].kind == "unknown_sender"

    def test_object_out_of_range(self, tiny_instance):
        _, events = self.screen(
            tiny_instance, [bid_msg(0, tiny_instance.n_objects + 7, 1.0)]
        )
        assert events[0].kind == "schema"

    def test_non_finite_value(self, tiny_instance):
        for value in (float("nan"), float("inf")):
            _, events = self.screen(tiny_instance, [bid_msg(0, 0, value)])
            assert events[0].kind == "schema"

    def test_bogus_sequence_number(self, tiny_instance):
        _, events = self.screen(tiny_instance, [bid_msg(0, 0, 1.0, seq=9999)])
        assert events[0].kind == "schema"

    def test_already_hosted_is_infeasible(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        hosted = int(np.nonzero(state.x[3])[0][0])
        _, events = self.screen(
            tiny_instance, [bid_msg(3, hosted, 2.0)], state
        )
        assert events[0].kind == "feasibility"

    def test_equivocation_voids_every_copy(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        free = np.nonzero(~state.x[0].astype(bool))[0][:2]
        bids = [
            bid_msg(0, int(free[0]), 1.0),
            bid_msg(0, int(free[1]), 2.0),
        ]
        accepted, events = self.screen(tiny_instance, bids, state)
        assert not accepted
        assert events[0].kind == "equivocation"

    def test_retransmission_passes(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        obj = int(np.nonzero(~state.x[0].astype(bool))[0][0])
        bids = [bid_msg(0, obj, 1.0), bid_msg(0, obj, 1.0, seq=1)]
        accepted, events = self.screen(tiny_instance, bids, state)
        assert len(accepted) == 2 and not events


class TestManipulationDetector:
    def test_truthful_bid_never_flagged(self):
        matrix = np.array([[3.0, 1.0], [2.0, 5.0]])
        d = ManipulationDetector()
        assert not d.inspect([bid_msg(1, 1, 5.0)], matrix, rnd=0)

    def test_misreport_flagged_with_both_values(self):
        matrix = np.array([[3.0, 1.0]])
        d = ManipulationDetector()
        events = d.inspect([bid_msg(0, 0, 6.0)], matrix, rnd=4)
        assert len(events) == 1
        e = events[0]
        assert e.kind == "misreport"
        assert e.reported == 6.0 and e.recomputed == 3.0 and e.round == 4

    def test_sub_tolerance_noise_tolerated(self):
        matrix = np.array([[3.0]])
        d = ManipulationDetector()
        wiggle = 3.0 * (1.0 + DETECTOR_REL_TOL / 4)
        assert not d.inspect([bid_msg(0, 0, wiggle)], matrix, rnd=0)

    def test_rel_tol_validated(self):
        with pytest.raises(ConfigurationError):
            ManipulationDetector(rel_tol=0.0)


class TestQuarantine:
    def test_policy_validation(self):
        for kwargs in (
            {"strikes": 0}, {"probation": 0}, {"max_quarantines": 0},
        ):
            with pytest.raises(ConfigurationError):
                QuarantinePolicy(**kwargs)

    def test_strikes_then_quarantine_then_release(self):
        q = QuarantineManager(QuarantinePolicy(strikes=2, probation=3))
        q.strike(5, rnd=0)
        assert 5 not in q.quarantined
        q.strike(5, rnd=1)
        assert 5 in q.quarantined
        # A strike during quarantine is a no-op.
        q.strike(5, rnd=2)
        assert q.quarantined_until[5] == 1 + 1 + 3
        assert q.releases_due(4) == []
        assert q.releases_due(5) == [5]
        assert 5 not in q.quarantined
        assert q.strikes[5] == 0  # clean slate after probation

    def test_expulsion_after_max_quarantines(self):
        q = QuarantineManager(
            QuarantinePolicy(strikes=1, probation=1, max_quarantines=2)
        )
        q.strike(3, rnd=0)          # first quarantine
        q.releases_due(2)
        q.strike(3, rnd=2)          # second trip -> expelled
        assert 3 in q.expelled
        assert 3 not in q.quarantined

    def test_lifecycle_events_emitted(self):
        sink = ev.ColumnarSink()
        with ev.capture(sink):
            q = QuarantineManager(QuarantinePolicy(strikes=1, probation=1))
            q.strike(2, rnd=0)
            q.releases_due(2)
        actions = [
            e.action for e in sink.events if isinstance(e, ev.QuarantineEvent)
        ]
        assert actions == ["quarantine", "release"]


def _log_bytes(sink):
    return "\n".join(json.dumps(e.to_dict(), sort_keys=True) for e in sink.events)


def _run_logged(instance, **kwargs):
    sink = ev.ColumnarSink()
    with ev.logical_time(), ev.capture(sink):
        result = SemiDistributedSimulator(**kwargs).run(instance)
    return result, sink


class TestNullPlanIdentity:
    """A null adversary plan must reproduce the honest run exactly."""

    def test_scheme_otc_and_log_identical(self, tiny_instance):
        base, base_sink = _run_logged(tiny_instance)
        null, null_sink = _run_logged(
            tiny_instance, adversary=AdversaryPlan.null()
        )
        assert np.array_equal(base.state.x, null.state.x)
        assert base.otc == null.otc
        assert _log_bytes(base_sink) == _log_bytes(null_sink)


def _plan(m, *, fraction=0.4, seed=3):
    return AdversaryPlan.random(n_agents=m, fraction=fraction, seed=seed)


class TestAdversaryEndToEnd:
    def test_same_seed_byte_identical_event_log(self, tiny_instance):
        plan = _plan(tiny_instance.n_servers)
        _, s1 = _run_logged(tiny_instance, adversary=plan)
        _, s2 = _run_logged(tiny_instance, adversary=plan)
        assert _log_bytes(s1) == _log_bytes(s2)

    def test_detection_recall_and_no_false_quarantines(self, tiny_instance):
        plan = _plan(tiny_instance.n_servers)
        _, sink = _run_logged(tiny_instance, adversary=plan)
        truth, flagged, quarantined = set(), set(), set()
        for e in sink.events:
            if isinstance(e, ev.AdversaryEvent):
                truth.add((e.round, e.agent))
            elif isinstance(e, (ev.ValidationEvent, ev.ManipulationEvent)):
                if e.agent >= 0:
                    flagged.add((e.round, e.agent))
            elif isinstance(e, ev.QuarantineEvent):
                if e.action in ("quarantine", "expel"):
                    quarantined.add(e.agent)
        assert truth, "the campaign must actually inject something"
        recall = len(truth & flagged) / len(truth)
        assert recall >= 0.95
        assert quarantined <= set(plan.agents)  # zero false quarantines

    def test_final_scheme_stays_feasible(self, tiny_instance):
        result, _ = _run_logged(
            tiny_instance, adversary=_plan(tiny_instance.n_servers)
        )
        check_state(result.state)

    def test_log_passes_offline_audit(self, tiny_instance):
        _, sink = _run_logged(
            tiny_instance, adversary=_plan(tiny_instance.n_servers)
        )
        report = audit_events(sink.events)
        assert report.ok, [str(v) for v in report.violations]

    def test_trust_and_adversary_summaries(self, tiny_instance):
        result, _ = _run_logged(
            tiny_instance, adversary=_plan(tiny_instance.n_servers)
        )
        adv = result.extra["adversary"]
        trust = result.extra["boundary"]
        assert adv["injected"]["injected_bids"] > 0
        assert trust["validations_rejected"] + trust["manipulations_flagged"] > 0
        assert json.loads(json.dumps(adv)) == adv
        # NaN-valued garbage bids may appear in the plan dict only, which
        # is JSON-safe; the trust summary must round-trip too.
        assert json.loads(json.dumps(trust)) == trust

    def test_composes_with_fault_plan(self, tiny_instance):
        plan = _plan(tiny_instance.n_servers)
        faults = FaultPlan(
            channel=ChannelConfig(drop=0.05, duplicate=0.02), seed=11
        )
        r1, s1 = _run_logged(tiny_instance, adversary=plan, faults=faults)
        r2, s2 = _run_logged(tiny_instance, adversary=plan, faults=faults)
        assert _log_bytes(s1) == _log_bytes(s2)
        check_state(r1.state)

    def test_expelled_agents_do_not_block_termination(self, tiny_instance):
        # A pure-garbage adversary gets expelled quickly; the run must
        # still converge rather than livelock waiting for it.
        m = tiny_instance.n_servers
        plan = AdversaryPlan(
            agents={0: AdversarySpec("garbage")}, seed=2
        )
        result, sink = _run_logged(
            tiny_instance,
            adversary=plan,
            quarantine=QuarantinePolicy(
                strikes=1, probation=2, max_quarantines=1
            ),
        )
        expels = [
            e for e in sink.events
            if isinstance(e, ev.QuarantineEvent) and e.action == "expel"
        ]
        assert [e.agent for e in expels] == [0]
        check_state(result.state)
        assert result.rounds > 0


class TestQuarantineWaitOut:
    """A quiet round while bidders sit out a finite quarantine does not
    end the game: the run waits out the probation and then plays the
    healthy game."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_everyone_quarantined_waits_out_probation(self, tiny_instance, k):
        m = tiny_instance.n_servers
        # Every agent sends garbage in round 0 only; one strike each
        # quarantines the whole population for five rounds.
        plan = AdversaryPlan(
            agents={a: AdversarySpec("garbage") for a in range(m)},
            window=(0, 1),
        )
        policy = QuarantinePolicy(strikes=1, probation=5, max_quarantines=3)
        healthy = ShardedAGTRam(n_regions=k, seed=0).run(tiny_instance)
        with ev.capture() as sink, ev.logical_time():
            result = ShardedAGTRam(
                n_regions=k, seed=0, adversary=plan, quarantine=policy,
            ).run(tiny_instance)
        check_state(result.state)
        actions = [
            e.action for e in sink.events if isinstance(e, ev.QuarantineEvent)
        ]
        assert actions.count("quarantine") == m
        assert actions.count("release") == m
        assert np.array_equal(result.state.x, healthy.state.x)
        assert result.rounds == healthy.rounds + 1 + policy.probation
        if k == 1:
            report = audit_events(sink.events)
        else:
            report = audit_sharded_events(sink.events)
        assert report.ok, report.summary()


class TestTrustBoundaryUnit:
    def test_screen_strikes_once_per_round(self, tiny_instance):
        state = ReplicationState.primaries_only(tiny_instance)
        engine = BenefitEngine(tiny_instance, state)
        boundary = TrustBoundary(
            tiny_instance, QuarantinePolicy(strikes=2, probation=5)
        )
        obj = int(np.nonzero(~state.x[0].astype(bool))[0][0])
        lie = float(engine.matrix[0, obj]) + 100.0
        # Two copies of the same lie in one round: one strike, not two.
        bids = [bid_msg(0, obj, lie), bid_msg(0, obj, lie, seq=1)]
        accepted, offended = boundary.screen(bids, state, engine.matrix, 0)
        assert offended and len(accepted) == 2
        assert boundary.quarantine.strikes[0] == 1

    def test_filter_bidders_drops_excluded(self, tiny_instance):
        boundary = TrustBoundary(tiny_instance)
        boundary.quarantine.expelled.add(2)
        assert boundary.filter_bidders([0, 1, 2, 3], rnd=0) == [0, 1, 3]


class TestCollusion:
    def test_boosters_prop_up_second_price(self):
        plan = AdversaryPlan(
            agents={
                1: AdversarySpec("collude", ring=0),
                2: AdversarySpec("collude", ring=0),
            }
        )
        inj = AdversaryInjector(plan, n_agents=4)

        class _State:
            x = np.zeros((4, 3), dtype=np.int8)
            residual = np.full(4, 100)

        class _Inst:
            sizes = np.array([1, 1, 1])
            n_objects = 3

        bids = {
            0: Bid(agent=0, obj=0, value=4.0),
            1: Bid(agent=1, obj=1, value=9.0),   # ring leader
            2: Bid(agent=2, obj=2, value=1.0),   # booster
            3: Bid(agent=3, obj=0, value=2.0),
        }
        sink = ev.ColumnarSink()
        with ev.capture(sink):
            sends = inj.corrupt_round(0, bids, _State(), _Inst())
        # The leader's bid is untouched; the booster sits just under it.
        assert sends[1] == [(1, 9.0)]
        (obj, boost), = sends[2]
        assert obj == 2 and 8.9 < boost < 9.0
        ground_truth = [
            e for e in sink.events if isinstance(e, ev.AdversaryEvent)
        ]
        assert [e.agent for e in ground_truth] == [2]
        assert ground_truth[0].behavior == "collude"
