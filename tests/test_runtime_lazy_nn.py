"""Tests for the lazy NN-update protocol (DESIGN.md §5 ablation)."""

import numpy as np
import pytest

from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError
from repro.runtime.simulator import SemiDistributedSimulator


class TestLazyNNUpdates:
    def test_period_one_is_eager(self, tiny_instance):
        eager = SemiDistributedSimulator(nn_update_period=1).run(tiny_instance)
        default = SemiDistributedSimulator().run(tiny_instance)
        assert np.array_equal(eager.state.x, default.state.x)

    def test_state_remains_feasible(self, read_heavy_instance):
        res = SemiDistributedSimulator(nn_update_period=5).run(read_heavy_instance)
        check_state(res.state)

    def test_fewer_nn_messages(self, read_heavy_instance):
        eager = SemiDistributedSimulator(nn_update_period=1).run(read_heavy_instance)
        lazy = SemiDistributedSimulator(nn_update_period=8).run(read_heavy_instance)
        assert (
            lazy.extra["metrics"].log.counts.get("NNResyncMessage", 0)
            < eager.extra["metrics"].log.counts["NNResyncMessage"]
        )

    def test_quality_degrades_or_matches(self, read_heavy_instance):
        eager = SemiDistributedSimulator(nn_update_period=1).run(read_heavy_instance)
        lazy = SemiDistributedSimulator(nn_update_period=10).run(read_heavy_instance)
        # Stale bids can only lose quality (they overestimate benefits).
        assert lazy.savings_percent <= eager.savings_percent + 0.5

    def test_still_saves_substantially(self, read_heavy_instance):
        lazy = SemiDistributedSimulator(nn_update_period=10).run(read_heavy_instance)
        assert lazy.savings_percent > 0.0

    def test_bad_period(self):
        # Typed, and still a ValueError for callers that catch that.
        with pytest.raises(ConfigurationError, match="nn_update_period"):
            SemiDistributedSimulator(nn_update_period=0)
        with pytest.raises(ValueError):
            SemiDistributedSimulator(nn_update_period=-3)

    def test_terminates(self, tiny_instance):
        res = SemiDistributedSimulator(nn_update_period=50).run(tiny_instance)
        assert res.rounds <= tiny_instance.n_servers * tiny_instance.n_objects
