"""Extension (paper §7): regional mechanisms on the sharded central.

"This would enable the system to be less vulnerable to the failures of
a single mechanism" — measured: the concurrent regional game converges
in far fewer global rounds for a small quality cost; and killing one
regional body (all of its agents down for the run) degrades savings
gracefully where the flat design would lose everything.
"""

import numpy as np

from _config import BENCH_BASE
from repro.core.agt_ram import run_agt_ram
from repro.experiments.instances import paper_instance
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity
from repro.utils.tables import render_table

N_REGIONS = 5


def run_all():
    instance = paper_instance(
        BENCH_BASE.with_(rw_ratio=0.95, capacity_fraction=0.45, name="hier")
    )
    flat = run_agt_ram(instance)
    con = ShardedAGTRam(n_regions=N_REGIONS, seed=1).run(instance)
    coop = ShardedAGTRam(
        n_regions=N_REGIONS, regional_game="cooperative", seed=1
    ).run(instance)
    part = partition_by_proximity(instance, N_REGIONS, seed=1)
    horizon = instance.n_servers * instance.n_objects
    region_0_down = FaultSchedule(
        agent_crashes={int(a): [(0, horizon)] for a in np.flatnonzero(part == 0)}
    )
    one_down = ShardedAGTRam(
        n_regions=N_REGIONS,
        seed=1,
        faults=FaultPlan(schedule=region_0_down, checkpoint_period=0),
    ).run(instance)
    return {
        "flat": flat,
        "concurrent": con,
        "concurrent+cooperative": coop,
        "1-region-down": one_down,
    }


def test_hierarchical_extension(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [name, res.savings_percent, res.rounds, res.replicas_allocated]
        for name, res in results.items()
    ]
    report(
        render_table(
            ["variant", "savings (%)", "global rounds", "replicas"],
            rows,
            title=f"Regional mechanism ({N_REGIONS} regions) vs flat "
            "[R/W=0.95, C=45%]",
        )
    )
    flat, con, down = (
        results["flat"],
        results["concurrent"],
        results["1-region-down"],
    )
    # Concurrent autonomy: ~n_regions x fewer global rounds...
    assert con.rounds < flat.rounds * 0.6
    # ...at a bounded quality cost.
    assert con.savings_percent > 0.85 * flat.savings_percent
    # Failure resilience: one dead region still leaves most of the value.
    assert down.savings_percent > 0.6 * flat.savings_percent
    benchmark.extra_info["concurrent_round_reduction"] = round(
        1 - con.rounds / flat.rounds, 3
    )
