"""The replica agent's report — the paper's computational entity per
server speaks to the central body only through it.

Axiom 2 (agent disposition): an agent privately knows the cost of
replication CoR_ik of each object onto its server (computable only from
its own read/write frequencies); capacities, topology and everything
else are public.  Each round the agent evaluates every object in its
eligible list L_i and reports its dominant valuation (Figure 2, lines
03–08); the message-level runtime (:mod:`repro.runtime.shard`) reads
that report from the benefit engine's per-agent best.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Bid:
    """One agent's per-round report: the object it wants and its declared
    valuation (the paper's t_i^k sent on line 08)."""

    agent: int
    obj: int
    value: float
