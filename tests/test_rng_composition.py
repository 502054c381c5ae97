"""RNG decoupling and adversary-dormancy tests.

Satellite guarantees of the composed failure planes:

* every plane realizes from its own spawn-keyed substream, so adding
  or removing one plane never changes what another plane does;
* a plane that realizes to nothing is byte-identical to the plane
  never having been declared, at every entry point (flat simulator,
  sharded runtime, full scenario);
* regional quiescence re-arms once the adversary window ends or every
  scripted attacker is expelled — with measurable traffic savings.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.runtime.adversary import (
    AdversaryPlan,
    AdversarySpec,
    QuarantinePolicy,
)
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.scenario import (
    AdversaryPlane,
    FaultPlane,
    PartitionPlane,
    Scenario,
    materialize,
    run_scenario,
)
from repro.runtime.shard import ShardedAGTRam
from repro.runtime.simulator import SemiDistributedSimulator


@pytest.fixture(scope="module")
def comp_instance():
    return paper_instance(
        ExperimentConfig(
            n_servers=12, n_objects=40, total_requests=6000,
            seed=5, name="comp",
        )
    )


def stream(fn):
    """Run ``fn`` under capture on the logical clock; return the events."""
    with ev.logical_time(), ev.capture() as sink:
        fn()
    return [e.to_dict() for e in sink.events]


class TestPlaneSubstreamIndependence:
    BASE = Scenario(
        name="indep", seed=99, servers=10, objects=30, requests=3000,
        regions=2, horizon=16, n_requests=1000,
        faults=FaultPlane(crash_rate=0.05, straggler_rate=0.05,
                          serving_crash_rate=0.03),
        adversary=AdversaryPlane(fraction=0.3),
        partition=PartitionPlane(fraction=0.3, mean_width=4.0),
    )

    def test_fault_realization_ignores_other_planes(self):
        alone = materialize(
            dataclasses.replace(self.BASE, adversary=None, partition=None)
        )
        composed = materialize(self.BASE)
        assert alone.fault_plan is not None
        assert (
            alone.fault_plan.schedule.to_dict()
            == composed.fault_plan.schedule.to_dict()
        )
        assert alone.serving_faults.to_dict() == (
            composed.serving_faults.to_dict()
        )

    def test_adversary_realization_ignores_other_planes(self):
        alone = materialize(
            dataclasses.replace(self.BASE, faults=None, partition=None)
        )
        composed = materialize(self.BASE)
        assert alone.adversary is not None
        assert alone.adversary.to_dict() == composed.adversary.to_dict()

    def test_partition_realization_ignores_other_planes(self):
        alone = materialize(
            dataclasses.replace(self.BASE, faults=None, adversary=None)
        )
        composed = materialize(self.BASE)
        assert alone.partition is not None
        assert alone.partition.to_dict() == composed.partition.to_dict()

    def test_instance_and_seeds_ignore_every_plane(self):
        bare = materialize(
            dataclasses.replace(
                self.BASE, faults=None, adversary=None, partition=None
            )
        )
        composed = materialize(self.BASE)
        assert (bare.instance.cost == composed.instance.cost).all()
        assert (bare.instance.reads == composed.instance.reads).all()
        assert bare.shard_seed == composed.shard_seed
        assert bare.serve_seed == composed.serve_seed


class TestNullPlaneByteIdentity:
    def test_scenario_zero_rate_planes_equal_absent_planes(self):
        bare = Scenario(name="null", seed=21, servers=8, objects=24,
                        requests=2000, regions=2, n_requests=800)
        declared = dataclasses.replace(
            bare,
            faults=FaultPlane(),          # all rates zero
            adversary=AdversaryPlane(fraction=0.0),
            partition=PartitionPlane(fraction=0.0, crash_rate=0.0),
        )
        a = run_scenario(bare)
        b = run_scenario(declared)
        assert [e.to_dict() for e in a.events] == [
            e.to_dict() for e in b.events
        ]
        # Reports agree everywhere except the declared-scenario echo
        # (the report faithfully records what was *declared*; the run
        # itself cannot tell the difference).
        trimmed_a = {k: v for k, v in a.report.items() if k != "scenario"}
        trimmed_b = {k: v for k, v in b.report.items() if k != "scenario"}
        assert trimmed_a == trimmed_b

    def test_flat_null_fault_plan_equals_no_faults(self, comp_instance):
        null_plan = FaultPlan(
            schedule=FaultSchedule.null(), checkpoint_period=0, seed=77
        )
        without = stream(
            lambda: SemiDistributedSimulator().run(comp_instance)
        )
        with_null = stream(
            lambda: SemiDistributedSimulator(faults=null_plan).run(
                comp_instance
            )
        )
        assert without == with_null

    def test_flat_closed_window_adversary_equals_no_adversary(
        self, comp_instance
    ):
        plan = AdversaryPlan.random(
            n_agents=12, fraction=0.25, seed=3, window=(0, 0)
        )
        without = stream(
            lambda: SemiDistributedSimulator().run(comp_instance)
        )
        with_plan = stream(
            lambda: SemiDistributedSimulator(adversary=plan).run(
                comp_instance
            )
        )
        assert without == with_plan

    def test_sharded_closed_window_adversary_equals_no_adversary(
        self, comp_instance
    ):
        plan = AdversaryPlan.random(
            n_agents=12, fraction=0.25, seed=3, window=(0, 0)
        )
        without = stream(
            lambda: ShardedAGTRam(n_regions=3, seed=9).run(comp_instance)
        )
        with_plan = stream(
            lambda: ShardedAGTRam(
                n_regions=3, seed=9, adversary=plan
            ).run(comp_instance)
        )
        assert without == with_plan


class TestDormancy:
    def test_dormant_after_window(self):
        plan = AdversaryPlan(
            agents={1: AdversarySpec("inflate")}, window=(2, 5)
        )
        from repro.runtime.adversary import AdversaryInjector

        inj = AdversaryInjector(plan, n_agents=4)
        # Before and during the window the attack is still live.
        assert not inj.dormant(1)
        assert not inj.dormant(4)
        assert inj.dormant(5)  # half-open: end round is already out
        assert inj.dormant(99)

    def test_dormant_once_all_attackers_expelled(self):
        plan = AdversaryPlan(
            agents={1: AdversarySpec("inflate"), 3: AdversarySpec("garbage")}
        )
        from repro.runtime.adversary import AdversaryInjector

        inj = AdversaryInjector(plan, n_agents=6)
        assert not inj.dormant(10)
        assert not inj.dormant(10, expelled={1})
        assert inj.dormant(10, expelled={1, 3})
        assert inj.dormant(10, expelled={1, 3, 5})

    def test_unbounded_plan_never_dormant_without_expulsions(self):
        plan = AdversaryPlan(agents={2: AdversarySpec("inflate")})
        from repro.runtime.adversary import AdversaryInjector

        inj = AdversaryInjector(plan, n_agents=4)
        assert not inj.dormant(10**6)

    def test_window_end_restores_quiescence_savings(self, comp_instance):
        def messages(plan):
            kw = {} if plan is None else {"adversary": plan}
            r = ShardedAGTRam(n_regions=3, seed=9, **kw).run(comp_instance)
            return r.extra["metrics"].log.total_messages()

        baseline = messages(None)
        always = messages(
            AdversaryPlan.random(n_agents=12, fraction=0.25, seed=3)
        )
        windowed = messages(
            AdversaryPlan.random(
                n_agents=12, fraction=0.25, seed=3, window=(0, 3)
            )
        )
        # An armed adversary suppresses regional quiescence (every
        # region keeps bidding), costing messages; once the window
        # passes, quiescence re-arms and the tail is cheap again.
        assert baseline < windowed < always

    def test_expulsion_restores_quiescence_savings(self, comp_instance):
        plan = AdversaryPlan.random(n_agents=12, fraction=0.25, seed=3)

        def messages(policy):
            r = ShardedAGTRam(
                n_regions=3, seed=9, adversary=plan, quarantine=policy
            ).run(comp_instance)
            return r.extra["metrics"].log.total_messages()

        harsh = messages(
            QuarantinePolicy(strikes=1, probation=2, max_quarantines=1)
        )
        lax = messages(
            QuarantinePolicy(strikes=1, probation=2, max_quarantines=1000)
        )
        # Expelling every attacker makes the adversary permanently
        # dormant mid-run; quiescent regions then stop bidding.
        assert harsh < lax
