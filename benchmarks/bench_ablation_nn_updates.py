"""Ablation: eager vs lazy NN-table broadcasts (DESIGN.md §5).

The paper's protocol broadcasts the NN update after every allocation
(Figure 2 lines 19–21).  Broadcasting every T commits instead trades
NN digest volume (``NNResyncMessage``) against bid staleness; this bench
measures the frontier.
"""

from _config import BENCH_BASE
from repro.experiments.instances import paper_instance
from repro.runtime.simulator import SemiDistributedSimulator
from repro.utils.tables import render_table

PERIODS = (1, 4, 16)


def run_ablation():
    instance = paper_instance(
        BENCH_BASE.with_(
            n_servers=24,
            n_objects=100,
            total_requests=15_000,
            rw_ratio=0.95,
            capacity_fraction=0.4,
            name="nn-ablation",
        )
    )
    out = []
    for period in PERIODS:
        res = SemiDistributedSimulator(nn_update_period=period).run(instance)
        metrics = res.extra["metrics"]
        out.append(
            {
                "period": period,
                "savings": res.savings_percent,
                "nn_messages": metrics.log.counts.get("NNResyncMessage", 0),
                "replicas": res.replicas_allocated,
            }
        )
    return out


def test_nn_update_cadence_ablation(benchmark, report):
    data = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        [d["period"], d["savings"], d["nn_messages"], d["replicas"]]
        for d in data
    ]
    report(
        render_table(
            ["broadcast period", "savings (%)", "NN-update msgs", "replicas"],
            rows,
            title="Ablation — NN-table broadcast cadence (eager=1 is the paper)",
        )
    )
    eager, *lazies = data
    for lazy in lazies:
        # Lazy protocols save NN-update messages...
        assert lazy["nn_messages"] < eager["nn_messages"]
        # ...and can only lose solution quality.
        assert lazy["savings"] <= eager["savings"] + 0.5
    benchmark.extra_info["eager_savings"] = round(eager["savings"], 2)
    benchmark.extra_info["laziest_savings"] = round(data[-1]["savings"], 2)
