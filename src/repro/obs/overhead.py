"""Eventing overhead measurement: the obs gate.

The columnar pipeline's contract (docs/observability.md) has two
halves.  Byte-equivalence — the expanded columnar stream equals the
reference oracle's per-decision stream field for field — is
deterministic and lives in :mod:`repro.obs.equivalence`
(``repro audit --compare-engines``).  This module measures the other
half: running AGT-RAM with eventing *on* must cost only a few percent
over eventing *off*.

Both settings are timed *interleaved in one process* with
``perf_counter`` (cross-process comparisons drift by double-digit
percents; ``process_time`` is tick-quantized on common kernels —
4 ms steps at HZ=250, coarser than a whole ``small`` run — and also
bills idle BLAS threads).  Each side of a pair times a back-to-back
batch of runs at least ``_MIN_BATCH_S`` long, after a collection so
neither side inherits the other's garbage, and each (off, on) pair
yields one paired overhead ``(on/off - 1) * 100``.  The gate reads a percentile
bootstrap confidence interval of the mean paired overhead
(:func:`~repro.analysis.stats.bootstrap_ci`) and fails when its
*upper* bound exceeds the budget — an estimator that cannot pass on one
lucky pair, unlike a minimum of the pairs.

Scale matters when interpreting the number: per-run fixed costs (ring
allocation, ledger init, final flush) are ~hundreds of microseconds, so
at ``tiny``/``small`` they dominate the ratio; the <5% headline target
is a property of the ``large`` preset, where the per-round marginal
cost is what's measured.  ``default_overhead_budget`` encodes that
scale-dependence for the CI gate.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass
from typing import Optional

from repro.analysis.stats import BootstrapCI, bootstrap_ci
from repro.obs import events as ev
from repro.utils.timing import perf_counter

__all__ = [
    "EventingOverhead",
    "measure_eventing_overhead",
    "default_overhead_budget",
    "format_eventing_overhead",
]

#: Per-scale overhead budgets (percent) for the CI gate.  ``large`` is
#: the headline: per-round marginal cost over a ~90us/round baseline.
#: The small presets bound regression drift, not the headline figure —
#: fixed per-run costs inflate their plain ratio (see module docstring
#: and docs/performance.md for the measured decomposition).
OVERHEAD_BUDGET_PERCENT: dict[str, float] = {
    "tiny": 60.0,
    "small": 25.0,
    "medium": 15.0,
    "large": 8.0,
}


#: Shortest timed batch per side of a pair (seconds).
_MIN_BATCH_S = 0.02


def default_overhead_budget(scale: str) -> float:
    """The CI overhead budget (percent) for a bench preset."""
    return OVERHEAD_BUDGET_PERCENT.get(scale, 8.0)


@dataclass
class EventingOverhead:
    """Eventing-on vs eventing-off cost of one AGT-RAM preset run."""

    scale: str
    rounds: int
    n_events: int
    #: Median eventing-off wall time per run (seconds).
    disabled_wall_s: float
    #: Median eventing-on (columnar) wall time per run (seconds).
    enabled_wall_s: float
    #: Bootstrap CI of the mean paired overhead, in percent.
    overhead: BootstrapCI

    def within(self, budget: float) -> bool:
        """True when the interval's upper bound fits ``budget``."""
        return self.overhead.hi <= budget

    @property
    def marginal_us_per_round(self) -> float:
        """Per-round marginal cost implied by the mean overhead."""
        if not self.rounds:
            return 0.0
        return (
            self.disabled_wall_s * self.overhead.mean / 100.0
        ) / self.rounds * 1e6


def measure_eventing_overhead(
    scale: str = "tiny", *, repeats: int = 30, seed: Optional[int] = 0
) -> EventingOverhead:
    """Time ``repeats`` interleaved (eventing-off, eventing-on) pairs of
    ``run_agt_ram`` on a bench preset.

    ``seed`` seeds the bootstrap resampling of the paired overheads.
    """
    from repro.core.agt_ram import run_agt_ram
    from repro.experiments.instances import paper_instance
    from repro.obs.report import bench_config

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    instance = paper_instance(bench_config(scale))

    def run_enabled() -> ev.ColumnarSink:
        with ev.capture() as sink:
            run_agt_ram(instance)
        return sink

    def run_disabled() -> None:
        run_agt_ram(instance)

    def timed(run, batch: int) -> float:
        gc.collect()
        t0 = perf_counter()
        for _ in range(batch):
            run()
        return (perf_counter() - t0) / batch

    rounds = run_agt_ram(instance).rounds
    n_events = len(run_enabled())  # also warms caches on both settings
    # Each side of a pair times a batch of runs lasting >= _MIN_BATCH_S,
    # so sub-millisecond presets are not measured at timer-noise scale.
    batch = max(1, math.ceil(_MIN_BATCH_S / max(timed(run_disabled, 1), 1e-6)))
    offs: list[float] = []
    ons: list[float] = []
    for _ in range(repeats):
        offs.append(timed(run_disabled, batch))
        ons.append(timed(run_enabled, batch))
    pairs = [(on / off - 1.0) * 100.0 for on, off in zip(ons, offs) if off > 0]
    return EventingOverhead(
        scale=scale,
        rounds=rounds,
        n_events=n_events,
        disabled_wall_s=statistics.median(offs),
        enabled_wall_s=statistics.median(ons),
        overhead=bootstrap_ci(pairs or [0.0], seed=seed),
    )


def format_eventing_overhead(cmp: EventingOverhead) -> str:
    ci = cmp.overhead
    return "\n".join(
        [
            f"emission gate @ {cmp.scale}: {cmp.rounds} rounds, "
            f"{cmp.n_events} events",
            f"  eventing off      {cmp.disabled_wall_s * 1e3:8.2f} ms (median)",
            f"  eventing on       {cmp.enabled_wall_s * 1e3:8.2f} ms (median)",
            f"  overhead          {ci.mean:8.2f} % mean, "
            f"{ci.confidence:.0%} CI [{ci.lo:.2f}, {ci.hi:.2f}] % "
            f"(~{cmp.marginal_us_per_round:.1f} us/round)",
        ]
    )
