"""Tests for the semi-distributed protocol: the one-region preset of the
message-level runtime."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.core.strategies import TopInflation
from repro.drp.feasibility import check_state
from repro.errors import ConvergenceError
from repro.obs import events as ev
from repro.runtime.adversary import AdversaryPlan, AdversarySpec, QuarantinePolicy
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator


def _failed(instance, dead):
    """Agents down for the whole run: they never bid, their primaries
    keep serving."""
    horizon = instance.n_servers * instance.n_objects
    return FaultPlan(
        schedule=FaultSchedule(agent_crashes={a: [(0, horizon)] for a in dead}),
        checkpoint_period=0,
    )


def _utilities(instance, result_events):
    """Per-agent Theorem-5 utility (winning value minus payment) read
    back from the run's event log."""
    utilities = np.zeros(instance.n_servers)
    for e in result_events:
        if isinstance(e, ev.WinnerEvent):
            utilities[e.agent] += e.value
        elif isinstance(e, ev.PaymentEvent):
            utilities[e.agent] -= e.amount
    return utilities


class TestSimulatorEquivalence:
    def test_is_the_one_region_runtime(self, tiny_instance):
        preset = SemiDistributedSimulator()
        assert isinstance(preset, ShardedAGTRam) and preset.n_regions == 1
        sim = preset.run(tiny_instance)
        one = ShardedAGTRam(n_regions=1).run(tiny_instance)
        assert np.array_equal(sim.state.x, one.state.x)
        assert np.array_equal(sim.extra["payments"], one.extra["payments"])

    def test_matches_vectorized_engine(self, tiny_instance):
        sim = SemiDistributedSimulator().run(tiny_instance)
        eng = run_agt_ram(tiny_instance)
        assert np.array_equal(sim.state.x, eng.state.x)
        assert sim.otc == pytest.approx(eng.otc)
        assert sim.rounds == eng.rounds

    def test_matches_with_deviating_agent(self, tiny_instance):
        # A deviating agent is a scripted "inflate" adversary; with the
        # quarantine out of reach its inflated bids reach the central,
        # so the runtime plays flat AGT-RAM's game with that agent's
        # TopInflation strategy.  Quiet rounds with a flagged bid do not
        # end the game, so the attack window closes after that game
        # (14 rounds) and the run ends on the first clean quiet round.
        plan = AdversaryPlan(
            agents={1: AdversarySpec("inflate", factor=2.0)}, window=(0, 40)
        )
        sim = SemiDistributedSimulator(
            adversary=plan, quarantine=QuarantinePolicy(strikes=10**9)
        ).run(tiny_instance)
        eng = run_agt_ram(tiny_instance, strategies={1: TopInflation(2.0)})
        assert np.array_equal(sim.state.x, eng.state.x)
        assert sim.rounds == 40

    def test_endless_flagging_hits_the_livelock_cap(self, tiny_instance):
        # Without a window or a reachable quarantine every quiet round
        # is flagged forever; the guard bounds the wait.
        plan = AdversaryPlan(agents={1: AdversarySpec("inflate", factor=2.0)})
        sim = SemiDistributedSimulator(
            adversary=plan, quarantine=QuarantinePolicy(strikes=10**9)
        )
        with pytest.raises(ConvergenceError, match="livelock"):
            sim.run(tiny_instance)

    def test_payments_match(self, tiny_instance):
        with ev.capture() as sink:
            sim = SemiDistributedSimulator().run(tiny_instance)
        eng = run_agt_ram(tiny_instance)
        assert np.allclose(sim.extra["payments"], eng.extra["payments"])
        assert np.allclose(
            _utilities(tiny_instance, sink.iter_events()),
            eng.extra["utilities"],
        )

    def test_state_feasible(self, tiny_instance):
        check_state(SemiDistributedSimulator().run(tiny_instance).state)


class TestMessageAccounting:
    def test_message_counts_shape(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        metrics = res.extra["metrics"]
        counts = metrics.log.counts
        rounds = metrics.rounds
        # One payment per allocation round.
        assert counts["PaymentMessage"] == rounds
        # Broadcast + NN digests fan out to all agents each round.
        assert counts["AllocateMessage"] == counts["NNResyncMessage"]
        assert counts["AllocateMessage"] >= rounds
        assert counts["BidMessage"] >= rounds

    def test_bytes_positive(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        assert res.extra["metrics"].log.bytes_total > 0

    def test_parallel_speedup_reported(self, tiny_instance):
        res = SemiDistributedSimulator().run(tiny_instance)
        m = res.extra["metrics"]
        assert m.parallel_speedup >= 1.0
        assert m.critical_path_work <= m.total_work


class TestRuntimeMetrics:
    def test_record_round_work(self):
        m = RuntimeMetrics()
        m.record_round_work([3, 5, 2])
        m.record_round_work([1])
        assert m.total_work == 11
        assert m.critical_path_work == 6
        assert m.parallel_speedup == pytest.approx(11 / 6)

    def test_empty_round(self):
        m = RuntimeMetrics()
        m.record_round_work([])
        assert m.total_work == 0
        assert m.parallel_speedup == 1.0

    def test_summary_keys(self):
        m = RuntimeMetrics()
        s = m.summary()
        assert {"rounds", "messages", "bytes", "parallel_speedup"} <= set(s)


class TestFailedAgents:
    def test_failed_agents_never_bid(self, tiny_instance):
        import numpy as np

        dead = {0, 1, 2}
        res = SemiDistributedSimulator(
            faults=_failed(tiny_instance, dead)
        ).run(tiny_instance)
        extra = res.state.x.copy()
        cols = np.arange(tiny_instance.n_objects)
        extra[tiny_instance.primaries, cols] = False
        for agent in dead:
            assert not extra[agent].any()
            assert res.extra["payments"][agent] == 0.0

    def test_survivors_still_allocate(self, read_heavy_instance):
        dead = {0}
        res = SemiDistributedSimulator(
            faults=_failed(read_heavy_instance, dead)
        ).run(read_heavy_instance)
        assert res.replicas_allocated > 0
        assert res.savings_percent > 0.0

    def test_all_failed_yields_primaries_only(self, tiny_instance):
        dead = set(range(tiny_instance.n_servers))
        res = SemiDistributedSimulator(
            faults=_failed(tiny_instance, dead)
        ).run(tiny_instance)
        assert res.replicas_allocated == 0

    def test_degradation_bounded_by_healthy(self, read_heavy_instance):
        healthy = SemiDistributedSimulator().run(read_heavy_instance)
        degraded = SemiDistributedSimulator(
            faults=_failed(read_heavy_instance, {0, 1})
        ).run(read_heavy_instance)
        assert degraded.savings_percent <= healthy.savings_percent + 1e-9
