"""Delta-maintained local-CoR oracle — the vectorized hot-path engine.

:class:`~repro.drp.benefit.BenefitEngine` (the *naive* engine) keeps the
full (M, N) benefit matrix fresh and recomputes every agent's dominant
report with a full-matrix argmax each round: O(M·N) per round, which is
the wall at AS-level scale (ROADMAP item 1).

This engine maintains only each agent's dominant report — the
``(best_vals, best_objs)`` columns — and repairs them after an
allocation from a *dirty set* derived from the NN broadcast the protocol
already performs.  Why that is exact (and bit-for-bit identical to the
naive argmax, not merely equivalent):

* Within a run, a cell's value ``rstat[i,k] * nn_dist[i,k] - wterm[i,k]``
  only ever *decreases*: the NN broadcast relaxes ``nn_dist`` strictly
  downward and ``rstat >= 0``.  Eligibility only ever *shrinks* (capacity
  is consumed, replicas are never removed), and an ineligible cell is
  ``-inf``.
* After allocating object ``k`` on ``winner``, the only cells that
  changed are column ``k`` for the agents in the broadcast's ``closer``
  mask (value decreased) and row ``winner`` (eligibility shrank).
* A cached row argmax can therefore only go stale for (a) agents in
  ``closer`` whose cached best object *is* ``k`` — their winning cell
  just dropped — or (b) the winner itself.  For every other agent the
  cached best cell is untouched and every changed cell in its row moved
  *down*, so the full-row argmax — including numpy's first-index
  tie-break — is unchanged.  (If a changed cell had tied the cached max
  at a smaller index, the cached argmax would already have been that
  index.)

Dirty rows are rescanned with the same elementwise expression and the
same ``argmax(axis=1)`` the naive engine uses, so IEEE-754 semantics and
tie-breaks agree exactly — ``repro audit --compare-engines`` and the
``engine-equivalence`` CI job verify that the mechanism over this engine
reproduces the reference oracle's winners, second prices and event logs.

Per round the engine costs O(M) for the argmax over cached bests plus
O(|dirty|·N) for the rescans, instead of O(M·N); empirically |dirty| is
a small constant, giving the ≥10x wall-clock win on the scaling presets
(see docs/performance.md).
"""

from __future__ import annotations

import numpy as np

from repro.drp.benefit import NEG_INF
from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.obs import tracer as obs


class DeltaBenefitEngine:
    """Dirty-set-maintained dominant reports over the local CoR oracle.

    Serves the clearing loops of :class:`~repro.core.agt_ram.AGTRam`
    and the sharded runtime's non-cooperative regions through the subset of
    :class:`~repro.drp.benefit.BenefitEngine`'s API they use
    (``best_per_server`` / ``row`` / ``value_at`` / ``refresh_object`` /
    ``refresh_server`` / ``notify_allocation`` / ``resync``), plus the
    zero-copy :meth:`best_view`.  It stores only the per-agent best
    columns; a row is materialized on demand.
    """

    engine_name = "vectorized"

    def __init__(self, instance: DRPInstance, state: ReplicationState):
        if state.instance is not instance:
            raise ValueError("state does not belong to instance")
        with obs.current().span("delta_engine/init"):
            self.instance = instance
            self.state = state
            # Shared with BenefitEngine via the instance cache — the
            # *same* array objects, so cell arithmetic is bit-identical.
            self.rstat, self.wterm = instance.local_value_terms()  # (M, N)
            m, n = instance.n_servers, instance.n_objects
            self._best_vals = np.empty(m, dtype=np.float64)
            self._best_objs = np.empty(m, dtype=np.int64)
            # Scratch rows reused by every single-row rescan so the hot
            # loop allocates nothing.
            self._valbuf = np.empty(n, dtype=np.float64)
            # Maintained ineligibility mask: ``_inel[i, k]`` is True where
            # a replica may NOT be placed.  A row only changes when that
            # server's capacity or replica set changes (i.e. when it wins
            # a round), so per-round maintenance is O(N) for one row.
            self._inel = (
                self.instance.sizes[None, :] > self.state.residual[:, None]
            ) | self.state.x
            # The tracer active at construction time is the one the run
            # executes under (the mechanism builds its engine inside the
            # capture scope); caching its enabled flag keeps contextvar
            # lookups out of the per-allocation repair path.
            self._counting = obs.current().enabled
            self._rescan_all()

    # -- maintenance --------------------------------------------------------

    def _rescan_row(self, i: int) -> None:
        """Recompute one agent's cached dominant report.

        Basic (view) indexing throughout — dirty sets are tiny (mean ~1
        row per round), so per-op numpy overhead dominates and fancy
        row-gathering would triple it.  Same elementwise expression and
        first-index argmax tie-break as the naive engine's full sweep,
        so every value is bit-identical.
        """
        state = self.state
        values = self._valbuf
        np.multiply(self.rstat[i], state.nn_dist[i], out=values)
        np.subtract(values, self.wterm[i], out=values)
        # Same value-wise result as np.where(eligible, values, NEG_INF).
        np.copyto(values, NEG_INF, where=self._inel[i])
        j = int(values.argmax())
        self._best_objs[i] = j
        self._best_vals[i] = values[j]

    def _refresh_ineligible_row(self, i: int) -> None:
        """Rebuild row i of the maintained ineligibility mask from state."""
        state = self.state
        row = self._inel[i]
        residual_i = state.instance.capacities[i] - state.used[i]
        np.greater(self.instance.sizes, residual_i, out=row)
        np.logical_or(row, state.x[i], out=row)

    def _rescan_rows(self, rows: np.ndarray) -> None:
        """Recompute the cached dominant report of the given rows.

        Same elementwise expression, masking and ``argmax(axis=1)``
        tie-break as the naive engine's full sweep, restricted to a row
        subset — the value in each cell is bit-identical.  Small sets go
        row-by-row (view indexing); large sets take one batched sweep.
        """
        n_rows = len(rows)
        if n_rows == 0:
            return
        if n_rows <= 8:
            for i in rows:
                self._rescan_row(int(i))
            return
        values = self.rstat[rows] * self.state.nn_dist[rows] - self.wterm[rows]
        masked = np.where(self._inel[rows], NEG_INF, values)
        objs = masked.argmax(axis=1)
        self._best_objs[rows] = objs
        self._best_vals[rows] = masked[np.arange(n_rows), objs]

    def _rescan_all(self) -> None:
        """Full-sweep rebuild of every cached best — no row gathering.

        Identical arithmetic and tie-break to :meth:`_rescan_rows` on
        ``arange(M)``, minus the three full-matrix fancy-index copies.
        """
        values = self.rstat * self.state.nn_dist - self.wterm
        np.copyto(values, NEG_INF, where=self._inel)
        objs = values.argmax(axis=1)
        self._best_objs[:] = objs
        self._best_vals[:] = values[np.arange(values.shape[0]), objs]

    def notify_allocation(self, server: int, k: int) -> None:
        """Repair cached bests after ``state.add_replica(server, k)``.

        Dirty set: agents whose NN entry for ``k`` changed in the
        broadcast *and* whose cached best is ``k``, plus the winner
        (whose eligibility row shrank).  See the module docstring for
        the exactness argument.
        """
        dirty = self.state.last_nn_changed & (self._best_objs == k)
        dirty[server] = True
        rows = dirty.nonzero()[0]
        self._refresh_ineligible_row(server)
        if len(rows) <= 8:
            for i in rows:
                self._rescan_row(int(i))
        else:
            self._rescan_rows(rows)
        if self._counting:
            tracer = obs.current()
            tracer.count("delta_engine/incremental_updates")
            tracer.count("delta_engine/dirty_rows", len(rows))

    def refresh_object(self, k: int) -> None:
        """Object k's column changed (NN relaxations, batch commits).

        Rescanning every agent whose cached best is ``k`` is exact: any
        other agent's changed cells in column ``k`` only moved down, so
        its cached argmax is untouched (module docstring argument).
        """
        self._rescan_rows(np.nonzero(self._best_objs == k)[0])

    def refresh_server(self, i: int) -> None:
        """Row i's eligibility changed (capacity consumed)."""
        self._refresh_ineligible_row(i)
        self._rescan_row(i)

    def resync(self) -> None:
        """Full rebuild from the live state (lazy/stale-view protocols)."""
        np.greater(
            self.instance.sizes[None, :],
            self.state.residual[:, None],
            out=self._inel,
        )
        np.logical_or(self._inel, self.state.x, out=self._inel)
        self._rescan_all()
        tracer = obs.current()
        if tracer.enabled:
            self._counting = True
            tracer.count("delta_engine/resyncs")

    # -- views --------------------------------------------------------------

    def best_per_server(self) -> tuple[np.ndarray, np.ndarray]:
        """Each agent's dominant report: (values, objects), both (M,).

        Returns copies — callers may hold them across allocations.
        """
        return self._best_vals.copy(), self._best_objs.copy()

    def best_view(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy view of the cached bests for the tight round loop.

        Mutated in place by :meth:`notify_allocation`; callers must not
        hold references across allocations.
        """
        return self._best_vals, self._best_objs

    def row(self, server: int) -> np.ndarray:
        """(N,) masked benefit row of one agent, materialized on demand."""
        values = (
            self.rstat[server] * self.state.nn_dist[server] - self.wterm[server]
        )
        eligible = (
            self.instance.sizes <= self.state.residual[server]
        ) & ~self.state.x[server]
        return np.where(eligible, values, NEG_INF)

    def value_at(self, server: int, k: int) -> float:
        """One masked benefit cell (``-inf`` when ineligible)."""
        if self.state.x[server, k] or (
            self.instance.sizes[k] > self.state.residual[server]
        ):
            return float(NEG_INF)
        return float(
            self.rstat[server, k] * self.state.nn_dist[server, k]
            - self.wterm[server, k]
        )
