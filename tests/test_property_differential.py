"""Differential harness: every surviving auction path against the others.

The distributed protocol must compute the centralized mechanism's
outcome (a faithful implementation).  Hypothesis draws small instances
(M <= 12, N <= 40) over the four topology families with varied
capacity and read/write mix, then checks:

* flat AGT-RAM with events off, flat AGT-RAM recording into a
  :class:`~repro.obs.events.ColumnarSink`, the flat message-level
  protocol (:class:`~repro.runtime.simulator.SemiDistributedSimulator`,
  the one-region preset) and an explicit
  :class:`~repro.runtime.shard.ShardedAGTRam` with ``n_regions=1`` all
  place the same replicas in the same rounds and charge the same
  payments (the protocol's logged utilities equal the flat mechanism's);
* batched AGT-RAM (B in {2, 4}) stays feasible and its log passes the
  offline audit;
* the one-region runtime under a random transient fault schedule and a
  lossy channel stays feasible and its log passes the offline audit
  modulo the declared fault log;
* multi-region sharded runs (k in {2, 4}, either regional game, with or
  without a region down for the whole run) stay feasible and pass the
  per-shard and cross-shard offline audit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agt_ram import AGTRam, run_agt_ram
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance, build_instance
from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_sharded_events
from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.runtime.simulator import SemiDistributedSimulator
from repro.topology import make_topology, transit_stub_graph
from repro.workload.synthetic import synthesize_workload


@st.composite
def differential_instances(draw) -> DRPInstance:
    """Small paper-style instances over all four topology families."""
    family = draw(
        st.sampled_from(["random", "waxman", "powerlaw", "transit-stub"])
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    if family == "transit-stub":
        # One transit domain of two nodes, one stub each: 4..12 nodes.
        stub_size = draw(st.integers(min_value=1, max_value=5))
        topo = transit_stub_graph(1, 2, 1, stub_size, seed=seed)
    else:
        m = draw(st.integers(min_value=3, max_value=12))
        topo = make_topology(family, m, seed=seed)
    n = draw(st.integers(min_value=1, max_value=40))
    workload = synthesize_workload(
        topo.n_nodes,
        n,
        total_requests=draw(st.integers(min_value=200, max_value=5_000)),
        rw_ratio=draw(st.sampled_from([0.25, 0.5, 0.75, 0.9, 0.95])),
        seed=seed,
    )
    return build_instance(
        topo,
        workload,
        capacity_fraction=draw(st.sampled_from([0.05, 0.15, 0.3, 0.45])),
        seed=seed,
    )


def _region_down(instance, n_regions, seed, region=0):
    part = partition_by_proximity(instance, n_regions, seed=seed)
    horizon = instance.n_servers * instance.n_objects
    crashes = {
        int(a): [(0, horizon)] for a in np.flatnonzero(part == region)
    }
    return FaultPlan(
        schedule=FaultSchedule(agent_crashes=crashes), checkpoint_period=0
    )


@given(differential_instances())
@settings(max_examples=150, deadline=None)
def test_every_path_computes_the_centralized_outcome(inst):
    flat = run_agt_ram(inst)
    with ev.capture(ev.ColumnarSink()):
        recorded = run_agt_ram(inst)
    with ev.capture() as sink:
        sim = SemiDistributedSimulator().run(inst)
    one = ShardedAGTRam(n_regions=1).run(inst)
    for other in (recorded, sim, one):
        assert np.array_equal(other.state.x, flat.state.x), other.algorithm
        assert np.array_equal(
            other.extra["payments"], flat.extra["payments"]
        ), other.algorithm
    events = list(sink.iter_events())
    winners = [e for e in events if isinstance(e, ev.WinnerEvent)]
    paid = [e for e in events if isinstance(e, ev.PaymentEvent)]
    utilities = np.zeros(inst.n_servers)
    for w, p in zip(winners, paid):
        utilities[w.agent] += w.value - p.amount
    assert np.array_equal(utilities, flat.extra["utilities"])
    assert recorded.rounds == sim.rounds == one.rounds == flat.rounds


@given(differential_instances(), st.sampled_from([2, 4]))
@settings(max_examples=60, deadline=None)
def test_batched_runs_are_feasible_and_audited(inst, batch):
    with ev.capture() as sink:
        result = AGTRam(batch_size=batch).run(inst)
    check_state(result.state)
    report = audit_events(sink.iter_events())
    assert report.ok, report.summary()


@st.composite
def transient_faults(draw, instance: DRPInstance) -> FaultPlan:
    """Crashes that all end, stragglers, central crashes, a lossy link."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    schedule = FaultSchedule.random(
        n_agents=instance.n_servers,
        horizon=2 * instance.n_objects + 8,
        seed=seed,
        crash_rate=draw(st.sampled_from([0.0, 0.05, 0.1])),
        straggler_rate=draw(st.sampled_from([0.0, 0.05, 0.1])),
        central_crash_rate=draw(st.sampled_from([0.0, 0.05])),
    )
    channel = ChannelConfig(
        drop=draw(st.sampled_from([0.0, 0.1, 0.2])),
        delay=draw(st.sampled_from([0.0, 0.05])),
        duplicate=draw(st.sampled_from([0.0, 0.05])),
    )
    return FaultPlan(
        schedule=schedule,
        channel=channel,
        checkpoint_period=draw(st.sampled_from([0, 2, 8])),
        seed=seed,
    )


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_one_region_under_transient_faults_is_audited(data):
    inst = data.draw(differential_instances())
    faults = data.draw(transient_faults(inst))
    with ev.capture() as sink:
        result = SemiDistributedSimulator(faults=faults).run(inst)
    check_state(result.state)
    report = audit_events(sink.iter_events())
    assert report.ok, report.summary()


@given(
    differential_instances(),
    st.sampled_from([2, 4]),
    st.sampled_from(["non-cooperative", "cooperative"]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_regional_runs_are_feasible_and_audited(
    inst, k, game, region_down, seed
):
    k = min(k, inst.n_servers)
    faults = _region_down(inst, k, seed) if region_down else None
    with ev.capture() as sink:
        result = ShardedAGTRam(
            n_regions=k, regional_game=game, seed=seed, faults=faults
        ).run(inst)
    check_state(result.state)
    assert result.extra["engine"] == (
        "regional" if game == "cooperative" else "vectorized"
    )
    report = audit_sharded_events(sink.iter_events())
    assert report.ok, report.summary()
