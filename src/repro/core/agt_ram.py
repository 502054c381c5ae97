"""AGT-RAM — the Axiomatic Game Theoretical Replica Allocation Mechanism.

Figure 2 of the paper, round by round:

1. every active agent evaluates its eligible list L_i and sends its
   dominant valuation t_i^k to the mechanism (the PARFOR of lines 03–09),
2. the central body picks the globally dominant report OMAX (line 10),
3. the payment is the *second* best report (lines 11–12, Axiom 5),
4. OMAX is broadcast so every agent updates its NN table (lines 13, 19–21),
5. the object is replicated, the winner's capacity and list shrink
   (lines 15–18),
6. the loop ends when no agent remains interested.

The central body's only decision is binary — replicate or not — which is
the paper's "semi-distributed" property.  Allocation stops when the best
report is no longer positive: replicating at a loss would *raise* the
system OTC, so the central body answers "0 (do not replicate)".

Complexity: each round costs O(M + N) incremental updates plus one
O(M·N) argmax, and at most M·N rounds exist, matching Theorem 4's
O(M·N²) worst case (for M <= N).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.core.mechanism import Mechanism, MechanismAudit, RoundRecord
from repro.core.payments import PAYMENT_RULES
from repro.core.strategies import Strategy
from repro.drp.cost import total_otc
from repro.drp.delta import DeltaBenefitEngine
from repro.drp.global_engine import GlobalBenefitEngine
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs import tracer as obs
from repro.result import PlacementResult
from repro.utils.timing import Timer, perf_counter


class _OtcLedger:
    """Flush-time OTC settlement for the clearing loop's event rows.

    The state's incremental tracker
    (:meth:`~repro.drp.state.ReplicationState.begin_otc_tracking`) would
    delta-maintain the system OTC inside every commit — one O(M) pass
    over the just-relaxed (strided) NN column.  Strided column walks are
    an order of magnitude slower than contiguous row passes, so the loop
    does no OTC arithmetic at all: each flush *reconstructs* every
    committed round's relaxed NN column as
    ``min(c(·, P_k), c(·, r_1), …, c(·, winner))`` from the instance's
    contiguous cost-column rows
    (:meth:`~repro.drp.instance.DRPInstance.cost_col_rows`),
    batch-gathered and min-chained per chunk, then settles the rounds
    with one batched ``einsum("rj,rj->r", ...)`` and a scalar replay of
    the tracker's exact accumulation.  The reconstruction is value-exact
    (a min-chain of the same floats the broadcast relaxed), and chunked
    batched einsum reduces each contiguous row independently — so the
    ``RoundEnd`` OTC floats are bit-identical to the tracker's.

    The ledger is seeded from the starting state
    (:meth:`~repro.drp.state.ReplicationState.otc_terms`): a warm start's
    pre-existing replicators open each object's relax chain.
    """

    #: Rows settled per gather/einsum call — sized so the three
    #: ``_CHUNK × M`` scratch blocks stay L2-resident between the gather
    #: and the einsum that re-reads them (measured optimum; 128 spills).
    _CHUNK = 32

    __slots__ = (
        "rstat_rows",
        "cost_rows",
        "pmap",
        "wterm",
        "otc",
        "read_k",
        "chains",
        "_pc",
        "_sc",
        "_rs",
        "_dots",
    )

    def __init__(self, state: ReplicationState) -> None:
        inst = state.instance
        # Seed exactly like the per-commit tracker — same floats —
        # without ever arming the tracker on the state (the loop's
        # commits must not pay it).
        otc0, read_k = state.otc_terms()
        self.otc = otc0
        self.read_k = read_k.tolist()
        self.rstat_rows = inst.read_scale_rows()
        self.cost_rows = inst.cost_col_rows()
        self.pmap = inst.primaries
        self.wterm = inst.local_value_terms()[1]
        #: Replicators per object beyond the primary (warm-start ones
        #: first, then commit order) — a chained object's column is
        #: rebuilt from its whole chain.
        self.chains: dict[int, list[int]] = {}
        if state.n_replicas_added:
            extra = state.x.copy()
            extra[inst.primaries, np.arange(inst.n_objects)] = False
            for i, k in zip(*np.nonzero(extra)):
                self.chains.setdefault(int(k), []).append(int(i))
        c, m = self._CHUNK, inst.n_servers
        self._pc = np.empty((c, m))
        self._sc = np.empty((c, m))
        self._rs = np.empty((c, m))
        self._dots = np.empty(c)

    def _read_costs(
        self, ks: np.ndarray, ws: np.ndarray, objs_l: list, winners_l: list
    ) -> list[float]:
        """Each committed round's refreshed read cost
        ``Σ_i rstat_ik · nn_ik`` over its reconstructed column."""
        out: list[float] = []
        chunk = self._CHUNK
        crows = self.cost_rows
        pmap = self.pmap
        chains = self.chains
        for s in range(0, len(ks), chunk):
            e = min(s + chunk, len(ks))
            b = e - s
            rows = self._pc[:b]
            np.take(crows, pmap[ks[s:e]], axis=0, out=rows)
            np.take(crows, ws[s:e], axis=0, out=self._sc[:b])
            np.minimum(rows, self._sc[:b], out=rows)
            for j in range(b):
                k = objs_l[s + j]
                hist = chains.get(k)
                if hist is None:
                    chains[k] = [winners_l[s + j]]
                else:
                    # Chained object: rebuild the full relax chain.
                    hist.append(winners_l[s + j])
                    row = rows[j]
                    np.minimum(crows[int(pmap[k])], crows[hist[0]], out=row)
                    for w in hist[1:]:
                        np.minimum(row, crows[w], out=row)
            np.take(self.rstat_rows, ks[s:e], axis=0, out=self._rs[:b])
            np.einsum(
                "rj,rj->r", self._rs[:b], rows, out=self._dots[:b]
            )
            out.extend(self._dots[:b].tolist())
        return out

    def fill(self, buf: ev.ColumnarRoundBuffer) -> None:
        """Compute ``buf.otcs[:buf.n]`` for the staged rounds."""
        n = buf.n
        if n == 0:
            return
        winners_l = buf.winners[:n].tolist()
        objs_l = buf.objs[:n].tolist()
        # The loop's invariant: every staged row committed except, at
        # most, one terminal row at the very end — so the committed rows
        # are a prefix and plain slices (no index gathers) cover them.
        c = n - (1 if winners_l[-1] < 0 else 0)
        otc = self.otc
        read_k = self.read_k
        otcs = [0.0] * n
        if c:
            ks = buf.objs[:c]
            ws = buf.winners[:c]
            wds = self.wterm[ws, ks].tolist()
            new_rks = self._read_costs(ks, ws, objs_l, winners_l)
            for i in range(c):
                k = objs_l[i]
                new_rk = new_rks[i]
                otc += wds[i] + (new_rk - read_k[k])
                read_k[k] = new_rk
                otcs[i] = otc
        if c < n:
            otcs[c] = otc
        buf.otcs[:n] = otcs
        self.otc = otc


class AGTRam(Mechanism):
    """The paper's mechanism, configurable for the ablation studies.

    Local valuations run over the delta-maintained
    :class:`~repro.drp.delta.DeltaBenefitEngine`; the naive
    :class:`~repro.drp.benefit.BenefitEngine` survives only as the
    reference oracle (:mod:`repro.obs.equivalence`) production is
    checked against.

    Parameters
    ----------
    payment_rule:
        ``"second_price"`` (the paper's Axiom 5) or ``"first_price"``
        (ablation foil destroying truthfulness).
    valuation:
        ``"local"`` — agents value objects with their private Eq. 5 CoR
        (the paper's semi-distributed oracle); ``"global"`` — ablation in
        which agents hypothetically know the exact system-wide ΔOTC.
    strategies:
        Optional mapping ``server -> Strategy`` for agents that deviate
        from truth-telling; unlisted agents are truthful.  Used by the
        equilibrium experiments.
    max_rounds:
        Safety cap on mechanism rounds (default: no cap beyond the
        natural M·N bound).
    batch_size:
        Allocations per round.  1 is Figure 2 exactly.  B > 1 realizes
        the paper's "provide a *list* of objects" phrasing: the central
        body approves the top-B positive reports of one round together
        (winners are distinct agents, so no storage conflicts), each
        paying the uniform clearing price — the best *rejected* report —
        which stays independent of every winner's own bid.  Rounds drop
        ~B-fold; bids within a round are mutually stale, the same
        trade-off as the sharded runtime's concurrent regions.
    """

    name = "AGT-RAM"

    def __init__(
        self,
        *,
        payment_rule: str = "second_price",
        valuation: str = "local",
        strategies: Optional[Mapping[int, Strategy]] = None,
        max_rounds: Optional[int] = None,
        batch_size: int = 1,
    ):
        if payment_rule not in PAYMENT_RULES:
            raise ConfigurationError(
                f"unknown payment rule {payment_rule!r}; "
                f"expected one of {sorted(PAYMENT_RULES)}"
            )
        if valuation not in ("local", "global"):
            raise ConfigurationError(
                f"valuation must be 'local' or 'global', got {valuation!r}"
            )
        if max_rounds is not None and max_rounds < 0:
            raise ConfigurationError("max_rounds must be >= 0")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.payment_rule = payment_rule
        self.valuation = valuation
        self.strategies = dict(strategies) if strategies else {}
        self.max_rounds = max_rounds
        self.batch_size = batch_size

    # -- internals ---------------------------------------------------------

    def _reports(self, engine) -> tuple[np.ndarray, np.ndarray]:
        """This round's reports: each agent's dominant (value, object).

        Truthful agents report their true best.  A deviating agent
        transforms its full valuation row, then reports the argmax of
        the *transformed* row — matching how a selfish agent would
        actually play.  Rows come from ``engine.row`` so the delta
        engine materializes only the deviating agents' rows.  Both
        arrays are fresh copies the caller owns.
        """
        vals, objs = engine.best_per_server()
        for server, strategy in self.strategies.items():
            row = strategy.report(engine.row(server))
            if not np.isfinite(row).any():
                vals[server] = -np.inf
                continue
            obj = int(np.argmax(row))
            objs[server] = obj
            vals[server] = row[obj]
        return vals, objs

    def _flush(self, buf, ledger, sink, series) -> None:
        """Settle the ring's OTC column, flush it into the sink as one
        :class:`~repro.obs.events.RoundBlock`, and extend the round
        series.

        Committed rows are a prefix of the block (only the game's
        closing round commits nothing), so the series take plain
        slices.  Values come off the block columns via ``tolist()`` —
        python-native scalars, the same bits ``float()``/``int()`` casts
        produce.
        """
        with obs.current().span("flush"):
            ledger.fill(buf)
            block = buf.flush()
            if block is None:
                return
            c = block.rounds - (1 if block.winners[-1] < 0 else 0)
            series.otc.extend(block.otcs[:c].tolist())
            series.best_bid.extend(
                block.bid_vals[np.arange(c), block.winners[:c]].tolist()
            )
            series.payment.extend(block.payments[:c].tolist())
            series.n_bids.extend(block.n_bids[:c].tolist())
            sink.emit_block(block)

    def _clearing_loop(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        engine,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
        sink: ev.EventSink,
        series: Optional[ev.RoundSeries],
        audit: Optional[MechanismAudit],
    ) -> int:
        """Figure 2's loop, one allocation per round; returns the rounds.

        Truthful local runs read the delta engine's cached bests in
        place (``best_view``); strategic agents and the global oracle
        build fresh reports each round (:meth:`_reports`).  With a sink
        active, each round stages its pre-commit reports and commit
        scalars in a preallocated ring
        (:class:`~repro.obs.events.ColumnarRoundBuffer`) that flushes
        into the sink as blocks; expansion reproduces the per-decision
        event stream exactly (byte-identical under logical time), and
        ``RoundEnd.otc`` is settled per flush by the :class:`_OtcLedger`.
        """
        truthful = not self.strategies
        live = truthful and isinstance(engine, DeltaBenefitEngine)
        if live:
            vals, objs = engine.best_view()
        second_price = self.payment_rule == "second_price"
        pay = PAYMENT_RULES[self.payment_rule]
        neg_inf = -np.inf
        capacities = instance.capacities
        used = state.used
        buf = ledger = None
        if sink.enabled:
            ledger = _OtcLedger(state)
            buf = ev.ColumnarRoundBuffer(
                instance.n_servers,
                instance.sizes,
                capacity=min(512, cap + 1),
                payment_rule=self.payment_rule,
            )
        rounds = 0
        while rounds < cap:
            if not live:
                vals, objs = self._reports(engine)
            # OMAX selection (line 10).
            winner = int(vals.argmax())
            best = float(vals[winner])
            if buf is not None:
                buf.stage(vals, objs)
            if not np.isfinite(best) or best <= 0.0:
                # Central body's binary decision: (0) do not replicate.
                if buf is not None:
                    buf.close()
                if audit is not None:
                    audit.append(
                        RoundRecord(
                            reported=vals.copy(),
                            objects=objs.copy(),
                            winner=-1,
                            obj=-1,
                            payment=0.0,
                            true_value=0.0,
                        )
                    )
                break
            obj = int(objs[winner])
            # Payment (lines 11-12, Axiom 5).  The Vickrey price via a
            # swap instead of np.delete: the max over the other agents is
            # unchanged (−inf never wins it), and past the argmax above
            # ``vals`` holds no NaN or +inf (either would have won it
            # and ended the game), so ``second_best_payment``'s
            # non-finite filtering is vacuous.
            if second_price:
                vals[winner] = neg_inf
                runner_up = float(vals.max())
                vals[winner] = best
                payment = runner_up if runner_up > 0.0 else 0.0
            else:
                payment = pay(vals, winner)
            # The winner's *true* value for the object it was awarded
            # (not necessarily its truthful argmax when deviating).
            true_value = best if truthful else engine.value_at(winner, obj)
            payments[winner] += payment
            utilities[winner] += true_value - payment
            if buf is not None:
                buf.commit(
                    winner,
                    obj,
                    int(capacities[winner]) - int(used[winner]),
                    payment,
                )
            if audit is not None:
                audit.append(
                    RoundRecord(
                        reported=vals.copy(),
                        objects=objs.copy(),
                        winner=winner,
                        obj=obj,
                        payment=payment,
                        true_value=true_value,
                    )
                )
            # Commit + NN broadcast (lines 13-21).
            state.add_replica(winner, obj)
            engine.notify_allocation(winner, obj)
            rounds += 1
            if buf is not None and buf.full:
                self._flush(buf, ledger, sink, series)
        if buf is not None:
            self._flush(buf, ledger, sink, series)
        return rounds

    def _batched_loop(
        self,
        instance: DRPInstance,
        state: ReplicationState,
        engine,
        cap: int,
        payments: np.ndarray,
        utilities: np.ndarray,
        sink: ev.EventSink,
        series: Optional[ev.RoundSeries],
        audit: Optional[MechanismAudit],
    ) -> int:
        """Batched rounds (B > 1): approve the top-B positive reports at
        a uniform clearing price (the best rejected report), which no
        winner's own bid can influence.

        Its stream differs from the single-winner loop's — uniform-price
        payments, ``CapacityReject`` for stale bids, one ``obj=-1`` NN
        update per round — so it emits per-decision events, with
        ``RoundEnd.otc`` from the state's incremental tracker.
        """
        eventing = sink.enabled
        if eventing:
            state.begin_otc_tracking()
        m = instance.n_servers
        rounds = 0
        while rounds < cap:
            round_idx = rounds
            if eventing:
                sink.emit(ev.RoundStart(t=ev.now(), round=round_idx))
            reported_vals, reported_objs = self._reports(engine)
            if eventing:
                for agent in np.nonzero(np.isfinite(reported_vals))[0]:
                    sink.emit(
                        ev.BidEvent(
                            t=ev.now(),
                            round=round_idx,
                            agent=int(agent),
                            obj=int(reported_objs[agent]),
                            value=float(reported_vals[agent]),
                        )
                    )
            best = float(reported_vals[int(np.argmax(reported_vals))])
            if not np.isfinite(best) or best <= 0.0:
                # Central body's binary decision: (0) do not replicate.
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=round_idx,
                            committed=0,
                            otc=state.tracked_otc(),
                        )
                    )
                if audit is not None:
                    audit.append(
                        RoundRecord(
                            reported=reported_vals.copy(),
                            objects=reported_objs.copy(),
                            winner=-1,
                            obj=-1,
                            payment=0.0,
                            true_value=0.0,
                        )
                    )
                break
            order = np.argsort(reported_vals)[::-1]
            positive = [
                int(i)
                for i in order
                if np.isfinite(reported_vals[i]) and reported_vals[i] > 0.0
            ]
            batch = positive[: self.batch_size]
            rejected = positive[self.batch_size :]
            clearing = float(reported_vals[rejected[0]]) if rejected else 0.0
            # True values captured before any commit: bids within a
            # batch are mutually stale by design, and the delta engine
            # computes cells from the *live* state, so reading after a
            # commit would see the relaxed NN distances the naive
            # engine's (deliberately stale) matrix does not.
            batch_true = {
                w: engine.value_at(w, int(reported_objs[w])) for w in batch
            }
            committed = 0
            for w in batch:
                obj = int(reported_objs[w])
                if not state.can_host(w, obj):
                    # A stale bid (another batch member changed nothing
                    # for capacity, but warm starts might); skip rather
                    # than fault.
                    if eventing:
                        sink.emit(
                            ev.CapacityReject(
                                t=ev.now(),
                                round=round_idx,
                                agent=w,
                                obj=obj,
                                obj_size=int(instance.sizes[obj]),
                                residual=int(state.residual[w]),
                                reason=(
                                    "duplicate" if state.x[w, obj] else "capacity"
                                ),
                            )
                        )
                    continue
                true_value = batch_true[w]
                if eventing:
                    sink.emit(
                        ev.WinnerEvent(
                            t=ev.now(),
                            round=round_idx,
                            agent=w,
                            obj=obj,
                            value=float(reported_vals[w]),
                            obj_size=int(instance.sizes[obj]),
                            residual_before=int(state.residual[w]),
                        )
                    )
                    sink.emit(
                        ev.PaymentEvent(
                            t=ev.now(),
                            round=round_idx,
                            agent=w,
                            amount=clearing,
                            rule="uniform",
                        )
                    )
                state.add_replica(w, obj)
                payments[w] += clearing
                utilities[w] += true_value - clearing
                committed += 1
                if audit is not None:
                    audit.append(
                        RoundRecord(
                            reported=reported_vals.copy(),
                            objects=reported_objs.copy(),
                            winner=w,
                            obj=obj,
                            payment=clearing,
                            true_value=true_value,
                        )
                    )
            if committed == 0:
                if eventing:
                    sink.emit(
                        ev.RoundEnd(
                            t=ev.now(),
                            round=round_idx,
                            committed=0,
                            otc=state.tracked_otc(),
                        )
                    )
                break
            # NN updates broadcast once, after the batch commits.
            for w in batch:
                obj = int(reported_objs[w])
                if state.x[w, obj]:
                    engine.refresh_object(obj)
                    engine.refresh_server(w)
            rounds += 1
            if eventing:
                sink.emit(
                    ev.NNUpdateEvent(
                        t=ev.now(), round=round_idx, obj=-1, agents=m
                    )
                )
                assert series is not None
                series.append(
                    otc=state.tracked_otc(),
                    best_bid=best,
                    payment=clearing,
                    n_bids=int(np.isfinite(reported_vals).sum()),
                )
                sink.emit(
                    ev.RoundEnd(
                        t=ev.now(),
                        round=round_idx,
                        committed=committed,
                        otc=series.otc[-1],
                    )
                )
        return rounds

    # -- mechanism entry ---------------------------------------------------

    def _run(
        self,
        instance: DRPInstance,
        *,
        record_audit: bool = False,
        initial_state: Optional[ReplicationState] = None,
    ) -> PlacementResult:
        """Play the mechanism to completion.

        ``initial_state`` warm-starts from an existing scheme (adaptive
        re-replication across workload epochs); by default the game
        starts from the primaries-only scheme as in the paper.  Tracing
        records the engine build, one span around the clearing loop and
        one per event flush — never per round, so a traced run executes
        the same loop as an untraced one.
        """
        timer = Timer()
        tracer = obs.current()
        traced = tracer.enabled
        sink = ev.current()
        series = ev.RoundSeries() if sink.enabled else None
        audit = MechanismAudit() if record_audit else None
        m = instance.n_servers
        payments = np.zeros(m)
        utilities = np.zeros(m)

        with timer:
            t0 = perf_counter() if traced else 0.0
            if initial_state is not None:
                if initial_state.instance is not instance:
                    raise ConfigurationError(
                        "initial_state belongs to a different instance"
                    )
                state = initial_state
            else:
                state = ReplicationState.primaries_only(instance)
            if self.valuation == "local":
                engine = DeltaBenefitEngine(instance, state)
            else:
                engine = GlobalBenefitEngine(instance, state)
            if traced:
                tracer.add("engine_init", perf_counter() - t0)
            cap = (
                self.max_rounds
                if self.max_rounds is not None
                else m * instance.n_objects
            )
            loop = (
                self._clearing_loop
                if self.batch_size == 1
                else self._batched_loop
            )
            with tracer.span("clearing_loop"):
                rounds = loop(
                    instance,
                    state,
                    engine,
                    cap,
                    payments,
                    utilities,
                    sink,
                    series,
                    audit,
                )
            if traced:
                tracer.count("rounds", rounds)

        extra = {
            "payments": payments,
            "utilities": utilities,
            "payment_rule": self.payment_rule,
            "valuation": self.valuation,
            "engine": engine.engine_name,
        }
        if audit is not None:
            extra["audit"] = audit
        if series is not None:
            extra["round_series"] = series
        return PlacementResult(
            algorithm=self.name if self.valuation == "local" else "AGT-RAM(global)",
            state=state,
            otc=total_otc(state),
            runtime_s=timer.elapsed,
            rounds=rounds,
            extra=extra,
        )


def run_agt_ram(
    instance: DRPInstance,
    *,
    payment_rule: str = "second_price",
    valuation: str = "local",
    strategies: Optional[Mapping[int, Strategy]] = None,
    record_audit: bool = False,
    max_rounds: Optional[int] = None,
) -> PlacementResult:
    """Functional one-shot entry point for :class:`AGTRam`.

    >>> result = run_agt_ram(instance)          # doctest: +SKIP
    >>> result.savings_percent                  # doctest: +SKIP
    """
    mech = AGTRam(
        payment_rule=payment_rule,
        valuation=valuation,
        strategies=strategies,
        max_rounds=max_rounds,
    )
    return mech.run(instance, record_audit=record_audit)
