"""Reference-oracle harness: production AGT-RAM vs Figure 2, bit for bit.

Production AGT-RAM (:func:`~repro.core.agt_ram.run_agt_ram`) clears
rounds over the delta-maintained
:class:`~repro.drp.delta.DeltaBenefitEngine`, stages events in a
columnar ring and settles ``RoundEnd`` OTC per flush.  It is only
admissible because it is *indistinguishable* from the textbook
mechanism.  :func:`reference_agt_ram` is that textbook: a short
Figure-2 loop over the naive full-matrix
:class:`~repro.drp.benefit.BenefitEngine` that emits one event object
per decision and reads OTC from the state's incremental tracker.  It
is the oracle, never a production path.  This module turns the claim
into a checkable artifact:

1. **Identity pass** — run production and the oracle once each under
   logical event time, then compare rounds, the final X matrix,
   per-agent payments and utilities, the exact OTC, and every recorded
   event *as serialized dicts* (so even float formatting must agree).
2. **Audit pass** — both event logs are re-verified by the offline
   mechanism audit (argmax winner, exact second price, capacity), so
   the two are not merely identical to each other but individually
   faithful to the axioms.
3. **Timing pass** — both run uninstrumented ``repeats`` times; the
   reported speedup is best-of-oracle over best-of-production.

``python -m repro audit --compare-engines`` drives this and is what the
CI ``engine-equivalence`` job and the nightly scaling workflow gate on
(see docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.core.payments import PAYMENT_RULES
from repro.core.strategies import Strategy
from repro.drp.benefit import BenefitEngine
from repro.drp.cost import total_otc
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import events as ev
from repro.result import PlacementResult
from repro.utils.timing import Timer, perf_counter


def reference_agt_ram(
    instance: DRPInstance,
    *,
    payment_rule: str = "second_price",
    strategies: Optional[Mapping[int, Strategy]] = None,
    max_rounds: Optional[int] = None,
    initial_state: Optional[ReplicationState] = None,
) -> PlacementResult:
    """Figure 2 over the naive engine, one event object per decision.

    Accepts the production knobs it checks (payment rule, strategic
    agents, round cap, warm start) and emits, into the active sink, the
    stream :func:`~repro.core.agt_ram.run_agt_ram` must reproduce.
    """
    pay = PAYMENT_RULES[payment_rule]
    sink = ev.current()
    eventing = sink.enabled
    if eventing:
        sink.emit(ev.RunStart(t=ev.now(), algorithm="AGT-RAM"))
    timer = Timer()
    m = instance.n_servers
    payments = np.zeros(m)
    utilities = np.zeros(m)
    rounds = 0
    with timer:
        state = (
            initial_state
            if initial_state is not None
            else ReplicationState.primaries_only(instance)
        )
        engine = BenefitEngine(instance, state)
        if eventing:
            state.begin_otc_tracking()
        cap = max_rounds if max_rounds is not None else m * instance.n_objects
        while rounds < cap:
            if eventing:
                sink.emit(ev.RoundStart(t=ev.now(), round=rounds))
            # PARFOR bid sweep (lines 03-09); deviating agents report the
            # argmax of their transformed row.
            vals, objs = engine.best_per_server()
            for server, strategy in (strategies or {}).items():
                row = strategy.report(engine.row(server))
                if not np.isfinite(row).any():
                    vals[server] = -np.inf
                    continue
                objs[server] = int(np.argmax(row))
                vals[server] = row[objs[server]]
            if eventing:
                for agent in np.nonzero(np.isfinite(vals))[0]:
                    sink.emit(
                        ev.BidEvent(
                            t=ev.now(),
                            round=rounds,
                            agent=int(agent),
                            obj=int(objs[agent]),
                            value=float(vals[agent]),
                        )
                    )
            # OMAX (line 10); stop when no report is positive.
            winner = int(np.argmax(vals))
            best = float(vals[winner])
            if not np.isfinite(best) or best <= 0.0:
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=rounds,
                            committed=0,
                            otc=state.tracked_otc(),
                        )
                    )
                break
            # Payment (lines 11-12), commit + NN broadcast (lines 13-21).
            obj = int(objs[winner])
            payment = pay(vals, winner)
            true_value = engine.value_at(winner, obj)
            payments[winner] += payment
            utilities[winner] += true_value - payment
            if eventing:
                sink.emit(
                    ev.WinnerEvent(
                        t=ev.now(),
                        round=rounds,
                        agent=winner,
                        obj=obj,
                        value=best,
                        obj_size=int(instance.sizes[obj]),
                        residual_before=int(state.residual[winner]),
                    )
                )
                sink.emit(
                    ev.PaymentEvent(
                        t=ev.now(),
                        round=rounds,
                        agent=winner,
                        amount=payment,
                        rule=payment_rule,
                    )
                )
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            if eventing:
                sink.emit(
                    ev.NNUpdateEvent(t=ev.now(), round=rounds, obj=obj, agents=m)
                )
                sink.emit(
                    ev.RoundEnd(
                        t=ev.now(),
                        round=rounds,
                        committed=1,
                        otc=state.tracked_otc(),
                    )
                )
            rounds += 1
        if eventing:
            state.end_otc_tracking()
    result = PlacementResult(
        algorithm="AGT-RAM",
        state=state,
        otc=total_otc(state),
        runtime_s=timer.elapsed,
        rounds=rounds,
        extra={
            "payments": payments,
            "utilities": utilities,
            "payment_rule": payment_rule,
            "engine": engine.engine_name,
        },
    )
    if eventing:
        sink.emit(
            ev.RunEnd(
                t=ev.now(), algorithm="AGT-RAM", otc=result.otc, rounds=rounds
            )
        )
    return result


@dataclass
class EngineComparison:
    """Outcome of one production-vs-oracle comparison run.

    ``naive_wall_s`` is the reference oracle's best wall and
    ``vectorized_wall_s`` production's.
    """

    scale: Optional[str]
    n_servers: int
    n_objects: int
    rounds: int
    replicas: int
    events_compared: int
    mismatches: list[str] = field(default_factory=list)
    audit_ok: bool = True
    naive_wall_s: float = 0.0
    vectorized_wall_s: float = 0.0
    repeats: int = 0

    @property
    def identical(self) -> bool:
        return not self.mismatches

    @property
    def speedup(self) -> float:
        if self.vectorized_wall_s <= 0.0:
            return float("inf") if self.naive_wall_s > 0.0 else 1.0
        return self.naive_wall_s / self.vectorized_wall_s

    def to_dict(self) -> dict[str, Any]:
        return {
            "scale": self.scale,
            "n_servers": self.n_servers,
            "n_objects": self.n_objects,
            "rounds": self.rounds,
            "replicas": self.replicas,
            "events_compared": self.events_compared,
            "identical": self.identical,
            "mismatches": list(self.mismatches),
            "audit_ok": self.audit_ok,
            "naive_wall_s": self.naive_wall_s,
            "vectorized_wall_s": self.vectorized_wall_s,
            "speedup": self.speedup,
            "repeats": self.repeats,
        }


def _recorded(run) -> tuple[PlacementResult, list[ev.Event]]:
    """One instrumented run under logical time: (result, events)."""
    with ev.logical_time(), ev.capture() as sink:
        result = run()
    return result, sink.events


def _best_wall(run, repeats: int) -> float:
    """Best-of-``repeats`` uninstrumented wall after two warmups."""
    for _ in range(2):
        run()
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        run()
        best = min(best, perf_counter() - t0)
    return best


def compare_engines(
    instance: DRPInstance,
    *,
    repeats: int = 3,
    scale: Optional[str] = None,
    **mechanism_kwargs: Any,
) -> EngineComparison:
    """Prove production AGT-RAM reproduces the reference oracle.

    ``mechanism_kwargs`` (payment rule, strategies, round cap) are
    forwarded to both.  ``scale`` is a label recorded in the result.
    """
    from repro.core.agt_ram import AGTRam
    from repro.obs.audit import audit_events

    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    def production() -> PlacementResult:
        return AGTRam(**mechanism_kwargs).run(instance)

    def oracle() -> PlacementResult:
        return reference_agt_ram(instance, **mechanism_kwargs)

    ref, ref_log = _recorded(oracle)
    cand, cand_log = _recorded(production)
    mismatches: list[str] = []

    def check(label: str, ok: bool) -> None:
        if not ok:
            mismatches.append(label)

    check("rounds", ref.rounds == cand.rounds)
    check("placements", np.array_equal(ref.state.x, cand.state.x))
    check("otc", ref.otc == cand.otc)
    check(
        "payments",
        np.array_equal(ref.extra["payments"], cand.extra["payments"]),
    )
    check(
        "utilities",
        np.array_equal(ref.extra["utilities"], cand.extra["utilities"]),
    )
    ref_events = [e.to_dict() for e in ref_log]
    cand_events = [e.to_dict() for e in cand_log]
    if len(ref_events) != len(cand_events):
        mismatches.append(
            f"event-count ({len(ref_events)} vs {len(cand_events)})"
        )
    else:
        for i, (a, b) in enumerate(zip(ref_events, cand_events)):
            if a != b:
                mismatches.append(f"event[{i}] ({a.get('type')} != {b.get('type')})")
                break

    audit_ok = audit_events(ref_log).ok and audit_events(cand_log).ok

    # Each side is timed in its own back-to-back block after untimed
    # warmups: the identity pass above leaves sizeable garbage and cold
    # allocator state, so the first runs absorb collection pauses and
    # page faults.  Interleaving the two instead would be systematically
    # unfair — the oracle's per-round full-matrix rebuilds churn
    # hundreds of MB through the allocator, and a production run
    # sandwiched between two oracle runs starts cache-cold every time.
    # Best-of-N within a warm block is the standard estimator of each
    # side's true cost.
    return EngineComparison(
        scale=scale,
        n_servers=instance.n_servers,
        n_objects=instance.n_objects,
        rounds=ref.rounds,
        replicas=ref.state.total_replicas(),
        events_compared=len(ref_events),
        mismatches=mismatches,
        audit_ok=audit_ok,
        naive_wall_s=_best_wall(oracle, repeats),
        vectorized_wall_s=_best_wall(production, repeats),
        repeats=repeats,
    )


def compare_engines_at_scale(
    scale: str, *, repeats: int = 3, **mechanism_kwargs: Any
) -> EngineComparison:
    """Run :func:`compare_engines` on a bench preset (tiny … large)."""
    from repro.experiments.instances import paper_instance
    from repro.obs.report import bench_config

    instance = paper_instance(bench_config(scale))
    return compare_engines(
        instance, repeats=repeats, scale=scale, **mechanism_kwargs
    )


def format_comparison(cmp: EngineComparison) -> str:
    """Human-readable report for one comparison."""
    label = cmp.scale or f"{cmp.n_servers}x{cmp.n_objects}"
    lines = [
        f"reference-oracle equivalence @ {label} "
        f"(M={cmp.n_servers}, N={cmp.n_objects}, rounds={cmp.rounds}, "
        f"replicas={cmp.replicas})",
        f"  identity : {'OK' if cmp.identical else 'MISMATCH'} "
        f"({cmp.events_compared} events compared bit-for-bit)",
        f"  audit    : {'OK' if cmp.audit_ok else 'VIOLATIONS'}",
        f"  wall     : oracle {cmp.naive_wall_s * 1e3:.2f} ms, "
        f"production {cmp.vectorized_wall_s * 1e3:.2f} ms "
        f"(best of {cmp.repeats})",
        f"  speedup  : {cmp.speedup:.2f}x",
    ]
    for m in cmp.mismatches:
        lines.append(f"  MISMATCH: {m}")
    return "\n".join(lines)
