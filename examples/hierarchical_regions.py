#!/usr/bin/env python
"""Regional (hierarchical) AGT-RAM — the paper's Section 7 extension.

Servers are partitioned into proximity regions, each with its own
regional central body on the sharded runtime.  The example contrasts:

* concurrent regional autonomy (fewer global rounds, small quality cost),
* resilience when a regional body fails — every agent of the region is
  down for the run (the flat design's single central body is a total
  single point of failure).

Run:  python examples/hierarchical_regions.py
"""

import numpy as np

from repro import ExperimentConfig, paper_instance, run_agt_ram
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.utils.tables import render_table


def main() -> None:
    instance = paper_instance(
        ExperimentConfig(
            n_servers=40,
            n_objects=160,
            total_requests=30_000,
            rw_ratio=0.95,
            capacity_fraction=0.45,
            seed=17,
            name="regions-demo",
        )
    )
    n_regions = 5

    flat = run_agt_ram(instance)
    con = ShardedAGTRam(n_regions=n_regions, seed=2).run(instance)

    rows = [
        ["flat AGT-RAM", flat.savings_percent, flat.rounds],
        ["regional (concurrent)", con.savings_percent, con.rounds],
    ]
    part = partition_by_proximity(instance, n_regions, seed=2)
    horizon = instance.n_servers * instance.n_objects
    for dead in range(n_regions):
        region_down = FaultSchedule(
            agent_crashes={
                int(a): [(0, horizon)] for a in np.flatnonzero(part == dead)
            }
        )
        res = ShardedAGTRam(
            n_regions=n_regions,
            seed=2,
            faults=FaultPlan(schedule=region_down, checkpoint_period=0),
        ).run(instance)
        rows.append(
            [f"concurrent, region {dead} down", res.savings_percent, res.rounds]
        )
    print(
        render_table(
            ["variant", "OTC savings (%)", "global rounds"],
            rows,
            title=f"regional mechanism over {n_regions} proximity regions",
        )
    )

    print(
        f"\nthe concurrent regions used {flat.rounds - con.rounds} fewer "
        "global rounds than the flat mechanism.\n"
        "Losing a regional body costs savings roughly in line with its "
        "share of the servers; losing the flat design's central body "
        "would cost all of them."
    )

    stats = con.extra["region_stats"]
    rows = [
        [s.region, s.servers, s.allocations, s.payments]
        for s in stats.values()
    ]
    print()
    print(
        render_table(
            ["region", "servers", "allocations", "payments"],
            rows,
            title="per-region accounting (concurrent mode)",
        )
    )


if __name__ == "__main__":
    main()
