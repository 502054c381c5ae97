"""Tests for the cooperative regional game and central-body failover."""

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.drp.feasibility import check_state
from repro.drp.global_engine import RegionalBenefitEngine
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.runtime.adversary import AdversaryPlan
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator


class TestRegionalBenefitEngine:
    def test_single_region_equals_global(self, tiny_instance):
        from repro.drp.global_engine import GlobalBenefitEngine

        st1 = ReplicationState.primaries_only(tiny_instance)
        st2 = ReplicationState.primaries_only(tiny_instance)
        regions = np.zeros(tiny_instance.n_servers, dtype=int)
        regional = RegionalBenefitEngine(tiny_instance, st1, regions)
        global_ = GlobalBenefitEngine(tiny_instance, st2)
        assert np.array_equal(regional.matrix, global_.matrix)

    def test_singleton_regions_equal_local(self, tiny_instance):
        from repro.drp.benefit import BenefitEngine

        st1 = ReplicationState.primaries_only(tiny_instance)
        st2 = ReplicationState.primaries_only(tiny_instance)
        regions = np.arange(tiny_instance.n_servers)
        regional = RegionalBenefitEngine(tiny_instance, st1, regions)
        local = BenefitEngine(tiny_instance, st2)
        assert np.allclose(
            np.where(np.isfinite(regional.matrix), regional.matrix, -1),
            np.where(np.isfinite(local.matrix), local.matrix, -1),
        )

    def test_between_local_and_global(self, tiny_instance, rng):
        from repro.drp.benefit import BenefitEngine
        from repro.drp.global_engine import GlobalBenefitEngine

        st = ReplicationState.primaries_only(tiny_instance)
        regions = rng.integers(0, 3, size=tiny_instance.n_servers)
        regional = RegionalBenefitEngine(tiny_instance, st.copy(), regions)
        local = BenefitEngine(tiny_instance, st.copy())
        global_ = GlobalBenefitEngine(tiny_instance, st.copy())
        finite = np.isfinite(local.matrix)
        assert (regional.matrix[finite] >= local.matrix[finite] - 1e-9).all()
        assert (regional.matrix[finite] <= global_.matrix[finite] + 1e-9).all()

    def test_incremental_matches_fresh(self, tiny_instance, rng):
        st = ReplicationState.primaries_only(tiny_instance)
        regions = rng.integers(0, 3, size=tiny_instance.n_servers)
        engine = RegionalBenefitEngine(tiny_instance, st, regions)
        added = 0
        while added < 8:
            i = int(rng.integers(tiny_instance.n_servers))
            k = int(rng.integers(tiny_instance.n_objects))
            if st.can_host(i, k):
                st.add_replica(i, k)
                engine.notify_allocation(i, k)
                added += 1
        fresh = RegionalBenefitEngine(tiny_instance, st, regions)
        feasible = np.isfinite(fresh.matrix)
        assert np.allclose(engine.matrix[feasible], fresh.matrix[feasible])

    def test_bad_regions_shape(self, tiny_instance):
        st = ReplicationState.primaries_only(tiny_instance)
        with pytest.raises(ValueError):
            RegionalBenefitEngine(tiny_instance, st, np.zeros(3, dtype=int))


class TestCooperativeRegionalGame:
    def test_feasible(self, read_heavy_instance):
        res = ShardedAGTRam(
            n_regions=4, regional_game="cooperative", seed=0
        ).run(read_heavy_instance)
        check_state(res.state)

    def test_beats_non_cooperative(self, read_heavy_instance):
        # Pooling regional information can only widen what bids see, so
        # cooperative regions capture at least roughly the
        # non-cooperative savings (exact dominance is not guaranteed —
        # allocation order changes — but the trend must hold).
        coop = ShardedAGTRam(
            n_regions=4, regional_game="cooperative", seed=0
        ).run(read_heavy_instance)
        solo = ShardedAGTRam(
            n_regions=4, regional_game="non-cooperative", seed=0
        ).run(read_heavy_instance)
        assert coop.savings_percent > 0.9 * solo.savings_percent

    def test_bounded_by_flat_oracle(self, read_heavy_instance):
        coop = ShardedAGTRam(
            n_regions=4, regional_game="cooperative", seed=0
        ).run(read_heavy_instance)
        oracle = run_agt_ram(read_heavy_instance, valuation="global")
        assert coop.savings_percent <= oracle.savings_percent + 1.0

    def test_label(self, tiny_instance):
        # One regional runtime: the game shows in the engine it ran.
        res = ShardedAGTRam(
            n_regions=2, regional_game="cooperative", seed=0
        ).run(tiny_instance)
        assert res.algorithm == "Sharded-AGT-RAM"
        assert res.extra["engine"] == "regional"

    def test_bad_game(self):
        with pytest.raises(ConfigurationError):
            ShardedAGTRam(regional_game="zero-sum")

    def test_rejects_adversary_plan(self):
        # The trust boundary screens bids against the private valuation,
        # which the pooled regional engine does not provide.
        plan = AdversaryPlan.random(n_agents=16, fraction=0.25, seed=1)
        assert not plan.is_null
        with pytest.raises(ConfigurationError, match="cooperative"):
            ShardedAGTRam(regional_game="cooperative", adversary=plan)
        # A null plan arms nothing, so the combination is fine.
        ShardedAGTRam(
            regional_game="cooperative", adversary=AdversaryPlan.null()
        )


def _crash_at(rnd):
    """A scheduled central crash (§7 election + checkpoint recovery)."""
    return FaultPlan(schedule=FaultSchedule(central_crashes={rnd}))


def _failover(instance, crash=None, dead=()):
    """Run the flat protocol with an optional central crash at round
    ``crash`` and ``dead`` agents down for the whole run.  Returns the
    result and the acting central: the stand-in the last central
    recovery elected, or -1 (the dedicated central) when none ran."""
    horizon = instance.n_servers * instance.n_objects
    plan = FaultPlan(
        schedule=FaultSchedule(
            central_crashes=() if crash is None else {crash},
            agent_crashes={a: [(0, horizon)] for a in dead},
        )
    )
    with ev.capture() as sink:
        res = SemiDistributedSimulator(faults=plan).run(instance)
    acting = [
        e.acting_central
        for e in sink.iter_events()
        if isinstance(e, ev.RecoveryEvent) and e.kind == "central"
    ]
    return res, (acting[-1] if acting else -1)


class TestCentralFailover:
    def test_scheme_unchanged_by_failover(self, tiny_instance):
        healthy = SemiDistributedSimulator().run(tiny_instance)
        repaired = SemiDistributedSimulator(faults=_crash_at(3)).run(
            tiny_instance
        )
        assert np.array_equal(healthy.state.x, repaired.state.x)
        assert repaired.otc == pytest.approx(healthy.otc)

    def test_handover_recorded(self, tiny_instance):
        res, acting = _failover(tiny_instance, crash=3)
        injected = res.extra["fault_summary"]["injected"]
        assert injected["central_crashes"] == 1
        assert injected["recoveries"] == 1
        assert acting >= 0

    def test_election_messages_logged(self, tiny_instance):
        res = SemiDistributedSimulator(faults=_crash_at(0)).run(tiny_instance)
        counts = res.extra["metrics"].log.counts
        m = tiny_instance.n_servers
        assert counts["ElectionMessage"] == m * (m - 1)

    def test_no_failure_no_election(self, tiny_instance):
        res, acting = _failover(tiny_instance)
        assert "ElectionMessage" not in res.extra["metrics"].log.counts
        assert acting == -1

    def test_failover_with_dead_agents(self, tiny_instance):
        _, acting = _failover(tiny_instance, crash=1, dead={0, 1})
        # The acting central must be a live agent.
        assert acting not in {0, 1}

    def test_bad_round(self):
        # The round-count knob is gone; failover is scheduled through a
        # FaultPlan, and the removed keyword fails loudly.
        with pytest.raises(TypeError):
            SemiDistributedSimulator(central_failure_round=-1)

    def test_handover_emits_election_event(self, tiny_instance):
        with ev.capture() as sink:
            SemiDistributedSimulator(faults=_crash_at(2)).run(tiny_instance)
        elections = [
            e for e in sink.events if isinstance(e, ev.ElectionEvent)
        ]
        recoveries = [
            e for e in sink.events if isinstance(e, ev.RecoveryEvent)
        ]
        assert len(elections) == 1
        assert elections[0].round == 2
        assert elections[0].candidate == recoveries[-1].acting_central
        assert elections[0].voters == tiny_instance.n_servers

    def test_immediate_failure_elects_lowest_id(self, tiny_instance):
        res, acting = _failover(tiny_instance, crash=0)
        assert res.extra["fault_summary"]["injected"]["central_crashes"] == 1
        assert acting == 0

    def test_failed_agents_with_immediate_central_failure(self, tiny_instance):
        # A scheduled crash plus whole-run dead agents: dead agents sit
        # out the election and the game; the lowest *live* id takes over.
        healthy, _ = _failover(tiny_instance, dead={0, 1})
        res, acting = _failover(tiny_instance, crash=0, dead={0, 1})
        assert acting == 2
        m = tiny_instance.n_servers
        live = m - 2
        assert res.extra["metrics"].log.counts["ElectionMessage"] == live * (
            live - 1
        )
        # The handover itself must not change the outcome.
        assert np.array_equal(healthy.state.x, res.state.x)
        # Dead agents never receive replicas beyond their primaries.
        primaries_per_agent = np.bincount(
            tiny_instance.primaries, minlength=m
        )
        for dead in (0, 1):
            assert res.state.x[dead].sum() == primaries_per_agent[dead]

    def test_all_agents_failed_with_central_failure(self, tiny_instance):
        # Degenerate combination: nobody is left to elect or bid; the
        # crashed round stalls, the next (quiet) one ends the game on
        # the primaries-only scheme.
        res, acting = _failover(
            tiny_instance, crash=0, dead=set(range(tiny_instance.n_servers))
        )
        assert res.rounds == 1
        assert res.replicas_allocated == 0
        assert acting == -1
        assert "ElectionMessage" not in res.extra["metrics"].log.counts

    def test_scheduled_central_crash_matches_legacy_knob_scheme(
        self, tiny_instance
    ):
        # The removed round-count knob's outcome on this instance: the
        # healthy scheme, with agent 0 (the lowest live id) acting as
        # central.  The scheduled crash reproduces both.
        healthy = SemiDistributedSimulator().run(tiny_instance)
        scheduled, acting = _failover(tiny_instance, crash=3)
        assert np.array_equal(healthy.state.x, scheduled.state.x)
        assert acting == 0
