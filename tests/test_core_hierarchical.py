"""Tests for the §7 regional mechanism, which runs on ShardedAGTRam.

Each regional configuration is pinned to the event stream, placement,
payments and rounds of the two-level runtime it replaced, recorded
before that runtime was deleted.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.agt_ram import run_agt_ram
from repro.drp.feasibility import check_state
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs.audit import audit_sharded_events
from repro.obs.report import bench_config
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.shard import ShardedAGTRam, partition_by_proximity


def _regions_down(instance, regions, *, n_regions=4, seed=0):
    """A fault plan under which every agent of ``regions`` is down for
    the whole run: those regions have lost their mechanism."""
    part = partition_by_proximity(instance, n_regions, seed=seed)
    horizon = instance.n_servers * instance.n_objects
    crashes = {
        int(a): [(0, horizon)]
        for a in np.flatnonzero(np.isin(part, list(regions)))
    }
    return FaultPlan(
        schedule=FaultSchedule(agent_crashes=crashes), checkpoint_period=0
    )


class TestPartition:
    def test_shape_and_range(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 4, seed=0)
        assert part.shape == (tiny_instance.n_servers,)
        assert set(np.unique(part)) <= set(range(4))

    def test_all_regions_populated(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 4, seed=0)
        assert len(np.unique(part)) == 4

    def test_single_region(self, tiny_instance):
        part = partition_by_proximity(tiny_instance, 1, seed=0)
        assert (part == 0).all()

    def test_n_regions_equals_servers(self, tiny_instance):
        m = tiny_instance.n_servers
        part = partition_by_proximity(tiny_instance, m, seed=0)
        assert len(np.unique(part)) == m

    def test_too_many_regions(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            partition_by_proximity(tiny_instance, tiny_instance.n_servers + 1)

    def test_deterministic(self, tiny_instance):
        a = partition_by_proximity(tiny_instance, 3, seed=5)
        b = partition_by_proximity(tiny_instance, 3, seed=5)
        assert np.array_equal(a, b)

    def test_proximity_property(self, tiny_instance):
        # Every server is closer to some member of its own region's seed
        # set than... we verify weak coherence: mean intra-region cost is
        # below mean inter-region cost.
        part = partition_by_proximity(tiny_instance, 4, seed=1)
        c = tiny_instance.cost
        same = part[:, None] == part[None, :]
        off_diag = ~np.eye(len(part), dtype=bool)
        intra = c[same & off_diag].mean()
        inter = c[~same].mean()
        assert intra < inter


class TestSequentialMode:
    """One allocation per global round at the global second price: the
    single-region game, which is flat AGT-RAM."""

    def test_identical_to_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        one = ShardedAGTRam(n_regions=1, seed=0).run(read_heavy_instance)
        assert np.array_equal(flat.state.x, one.state.x)
        assert flat.rounds == one.rounds

    def test_payments_at_least_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        one = ShardedAGTRam(n_regions=1, seed=0).run(read_heavy_instance)
        assert np.array_equal(one.extra["payments"], flat.extra["payments"])

    def test_state_feasible(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=1, seed=1).run(read_heavy_instance)
        check_state(res.state)


class TestConcurrentMode:
    def test_fewer_rounds_than_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        con = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        assert con.rounds < flat.rounds

    def test_quality_close_to_flat(self, read_heavy_instance):
        flat = run_agt_ram(read_heavy_instance)
        con = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        assert con.savings_percent > 0.85 * flat.savings_percent

    def test_state_feasible(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        check_state(res.state)

    def test_region_stats_sum_to_total(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0).run(read_heavy_instance)
        stats = res.extra["region_stats"]
        assert sum(s.allocations for s in stats.values()) == (
            res.replicas_allocated
        )
        assert sum(s.servers for s in stats.values()) == (
            read_heavy_instance.n_servers
        )


class TestFailureResilience:
    def test_failed_region_abstains(self, read_heavy_instance):
        inst = read_heavy_instance
        res = ShardedAGTRam(
            n_regions=4, seed=0, faults=_regions_down(inst, [0])
        ).run(inst)
        part = res.extra["partition"]
        dead_servers = np.flatnonzero(part == 0)
        # No replica beyond the primaries was placed in the dead region.
        extra = res.state.x.copy()
        extra[inst.primaries, np.arange(inst.n_objects)] = False
        assert not extra[dead_servers].any()

    def test_degrades_gracefully(self, read_heavy_instance):
        inst = read_heavy_instance
        healthy = ShardedAGTRam(n_regions=4, seed=0).run(inst)
        degraded = ShardedAGTRam(
            n_regions=4, seed=0, faults=_regions_down(inst, [0])
        ).run(inst)
        assert 0.0 < degraded.savings_percent <= healthy.savings_percent + 1e-9

    def test_all_regions_failed(self, read_heavy_instance):
        inst = read_heavy_instance
        res = ShardedAGTRam(
            n_regions=2,
            seed=0,
            faults=_regions_down(inst, [0, 1], n_regions=2),
        ).run(inst)
        assert res.replicas_allocated == 0


class TestConfiguration:
    def test_bad_mode(self):
        # Regions always clear concurrently; the removed knob fails loudly.
        with pytest.raises(TypeError):
            ShardedAGTRam(mode="federated")

    def test_explicit_partition(self, tiny_instance):
        part = np.arange(tiny_instance.n_servers) % 2
        res = ShardedAGTRam(partition=part).run(tiny_instance)
        assert np.array_equal(res.extra["partition"], part)

    def test_bad_partition_shape(self, tiny_instance):
        with pytest.raises(ConfigurationError):
            ShardedAGTRam(partition=np.zeros(3, dtype=int)).run(tiny_instance)

    def test_max_rounds(self, read_heavy_instance):
        res = ShardedAGTRam(n_regions=4, seed=0, max_rounds=3).run(
            read_heavy_instance
        )
        assert res.rounds == 3


class TestEngineSelector:
    @pytest.mark.parametrize(
        "n_regions",
        [pytest.param(1, id="sequential"), pytest.param(4, id="concurrent")],
    )
    def test_naive_and_vectorized_identical(
        self, read_heavy_instance, n_regions, monkeypatch
    ):
        import repro.runtime.shard as shard_mod
        from repro.drp.benefit import BenefitEngine

        def run():
            return ShardedAGTRam(n_regions=n_regions, seed=0).run(
                read_heavy_instance
            )

        fast = run()
        # The naive engine as the reference oracle for the regional games.
        monkeypatch.setattr(shard_mod, "DeltaBenefitEngine", BenefitEngine)
        naive = run()
        # Same winners, same prices, same placement, bit for bit.
        assert np.array_equal(naive.state.x, fast.state.x)
        assert naive.otc == fast.otc
        assert naive.rounds == fast.rounds
        assert np.array_equal(
            naive.extra["payments"], fast.extra["payments"]
        )
        assert naive.extra["engine"] == "naive"
        assert fast.extra["engine"] == "vectorized"

    def test_bad_engine_rejected(self):
        # The engine is fixed; the removed selector fails loudly.
        with pytest.raises(TypeError):
            ShardedAGTRam(engine="turbo")

    def test_cooperative_has_no_vectorized_engine(self, read_heavy_instance):
        result = ShardedAGTRam(
            n_regions=4, regional_game="cooperative", seed=0
        ).run(read_heavy_instance)
        assert result.extra["engine"] == "regional"


class TestRegionTaggedEvents:
    def test_concurrent_rounds_carry_region(self, tiny_instance):
        with ev.capture() as sink:
            res = ShardedAGTRam(n_regions=4, seed=7).run(tiny_instance)
        part = res.extra["partition"]
        starts = [e for e in sink.events if type(e).type == "round_start"]
        winners = [e for e in sink.events if type(e).type == "winner"]
        assert starts and winners
        regions = {e.region for e in starts}
        assert regions <= set(range(4))
        assert all(e.region >= 0 for e in starts)
        # The tagged winner really lives in the tagged region.
        for e in winners:
            assert int(part[e.agent]) == e.region

    def test_flat_rounds_stay_untagged(self, tiny_instance):
        with ev.capture() as sink:
            run_agt_ram(tiny_instance)
        starts = [e for e in sink.events if type(e).type == "round_start"]
        assert starts
        assert {e.region for e in starts} == {-1}


# -- pins from the deleted two-level runtime ----------------------------------

INSTANCES = {
    "tiny": lambda: paper_instance(
        ExperimentConfig(
            n_servers=16, n_objects=60, total_requests=8_000, seed=101,
            name="tiny",
        )
    ),
    "read_heavy": lambda: paper_instance(
        ExperimentConfig(
            n_servers=20, n_objects=80, total_requests=15_000,
            rw_ratio=0.95, capacity_fraction=0.45, seed=7,
            name="read-heavy",
        )
    ),
    "bench_tiny": lambda: paper_instance(bench_config("tiny")),
}

CONFIGS = {
    "concurrent": lambda inst: ShardedAGTRam(n_regions=4, seed=0),
    "cooperative": lambda inst: ShardedAGTRam(
        n_regions=4, regional_game="cooperative", seed=0
    ),
    "failed_region_0": lambda inst: ShardedAGTRam(
        n_regions=4, seed=0, faults=_regions_down(inst, [0])
    ),
}

#: (instance, configuration) -> sha256 of the label-free logical-time
#: event stream, of X's bytes and of the float64 payments, plus rounds.
#: Recorded from the two-level runtime's ``mode="concurrent"``,
#: ``regional_game="cooperative"`` and ``failed_regions=[0]`` runs.
PINS = {
    ("tiny", "concurrent"): (
        "65f72f63daa8422f22fdc309c3bedeb3388b5b2d61b87c2a5e58bf5edc1275b2",
        "3819fd66f18f328bd6ecb430ed33e193dfd010d451f56de0be2d09bfa46042b6",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        7,
    ),
    ("tiny", "cooperative"): (
        "17012362485d061caa14d9f78f75612d0d64a20b35cb7e90b2c1d5cbcc351b26",
        "19500783767086084d05d10fb8141f1fcb707de8ced2b4165fc3d3b84280b983",
        "96beb899671d85052f71e39f64cd868c9e1d96805e06b84157a7ca8bea584ce0",
        40,
    ),
    ("tiny", "failed_region_0"): (
        "aff1f07ddda7ad3e0d2f43d04928d56aec71c9fa00492c2e27acc0924684fbea",
        "3f712fcc441bd86cadf23f66f60ccdd238ff229a1ee853ac6f1084798f0cf3cf",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        7,
    ),
    ("read_heavy", "concurrent"): (
        "197a9b229b29f46cd8951c7238db266cf3e0100a1cc1fec47944d0fabb3dfecc",
        "5a67aaf800fd9199ef5e608a3bb9dfbf62cc27e462142a2b8b754856ed38e13e",
        "0ea95c19e11682087a60a54db2f23e7e6b024594016670f1496efdb7becb69f2",
        80,
    ),
    ("read_heavy", "cooperative"): (
        "717f77cff0b79790a6117892af02ce170e272f1dcab905f8e67bed1a0e1f2515",
        "57aa4ef68fb593b33d17ff315e4b88d357ba194ff5951f85a07c4bd61d8c3c53",
        "1a7ddfd392941ac07906d0ebbec21a2c002a3566874747429b18607c3ffad18c",
        137,
    ),
    ("read_heavy", "failed_region_0"): (
        "5e592ee76207c65d30fce28e82cb743c320cfbbae529d10a6ede0d152b638dd4",
        "7fdd1cfaa3ff47bc5440c0f337070e86c2f1e1b1a80ba03760174562ce0bcccb",
        "270b4973cf681d7bd9da057ff420eec078a85a576b656f3ba4890370d2defa0e",
        80,
    ),
    ("bench_tiny", "concurrent"): (
        "50ee8961cf20d89ed88db1608f56e97f3fed043ab718fbff87f9e9212ec29b2b",
        "66d2d2ce05dc18836eaa5598c7ac3613381283b2e83d61719e53fa1b5f43ff8f",
        "c0bb65aa29cfcc89c66ffa0c4e99ab144414ba10ddf46f36ab86c9c919be9710",
        17,
    ),
    ("bench_tiny", "cooperative"): (
        "5713506594e5e00845a48484c6d8834ea39bd1a25caa66bdc40168cd45a28542",
        "0887dd7257b6f30ac8fb3c7d2509531e19d60ea49dcf2cc35ec268ff459b7369",
        "a72d83d79a1ac70e7a11f66fba512af7a911e4eb26ff97a89d27ab2558fdbd88",
        51,
    ),
    ("bench_tiny", "failed_region_0"): (
        "54987380a40838615d516e4d9846679999b0b6747cce639a0656bfa6d016946e",
        "27800e0b172d576e4f87ea099455d374db47c29811b9284ccdaa7cc5f87257a1",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        0,
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(PINS))
def test_reproduces_pinned_regional_run(case):
    name, config = case
    inst = INSTANCES[name]()
    with ev.logical_time(), ev.capture() as sink:
        result = CONFIGS[config](inst).run(inst)
    events = list(sink.iter_events())
    dicts = [e.to_dict() for e in events]
    for d in dicts:
        if d["type"] in ("run_start", "run_end"):
            d.pop("algorithm", None)  # the runtime's label changed
    blob = "\n".join(json.dumps(d, sort_keys=True) for d in dicts)
    stream, x, payments, rounds = PINS[case]
    assert _sha(blob.encode()) == stream
    assert _sha(np.ascontiguousarray(result.state.x).tobytes()) == x
    assert _sha(
        np.asarray(result.extra["payments"], dtype=np.float64).tobytes()
    ) == payments
    assert result.rounds == rounds
    report = audit_sharded_events(events)
    assert report.ok, report.summary()
