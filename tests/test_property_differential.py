"""Differential harness: every surviving auction path against the others.

The distributed protocol must compute the centralized mechanism's
outcome (a faithful implementation).  Hypothesis draws small instances
(M <= 12, N <= 40) over the four topology families with varied
capacity and read/write mix, then checks:

* flat AGT-RAM with events off, flat AGT-RAM recording into a
  :class:`~repro.obs.events.ColumnarSink`, the message-level
  :class:`~repro.runtime.simulator.SemiDistributedSimulator` and the
  one-region :class:`~repro.runtime.shard.ShardedAGTRam` all place the
  same replicas and charge the same payments (the simulator and the flat
  mechanism also agree on every agent's utility);
* multi-region sharded runs (k in {2, 4}, either regional game, with or
  without a region down for the whole run) stay feasible and pass the
  per-shard and cross-shard offline audit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agt_ram import run_agt_ram
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance, build_instance
from repro.obs import events as ev
from repro.obs.audit import audit_sharded_events
from repro.runtime.faults import FaultPlan, FaultSchedule
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
    sim = SemiDistributedSimulator().run(inst)
    one = ShardedAGTRam(n_regions=1).run(inst)
    for other in (recorded, sim, one):
        assert np.array_equal(other.state.x, flat.state.x), other.algorithm
        assert np.array_equal(
            other.extra["payments"], flat.extra["payments"]
        ), other.algorithm
    assert np.array_equal(sim.extra["utilities"], flat.extra["utilities"])
    assert recorded.rounds == sim.rounds == flat.rounds


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
