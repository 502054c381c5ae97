"""The paper's flat semi-distributed protocol (Figure 2) as a preset.

One region, one central body: every agent bids each round, the central
answers with one binary decision and the second-best payment.  The
message-level runtime is :class:`~repro.runtime.shard.ShardedAGTRam`;
this preset only fixes ``n_regions=1``, where the regional round *is*
the flat round and its placement and payments equal the centralized
mechanism's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.shard import ShardedAGTRam


@dataclass
class SemiDistributedSimulator(ShardedAGTRam):
    """:class:`ShardedAGTRam` with a single region (the flat central)."""

    n_regions: int = 1
