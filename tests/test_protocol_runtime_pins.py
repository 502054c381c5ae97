"""The message-level runtime reproduces the parent runtime's streams.

Recorded before the flat simulator's protocol loop was folded onto
:class:`~repro.runtime.shard.ShardedAGTRam`: sha256 of the logical-time
event stream, of X's bytes and of the float64 payments, plus rounds,
for sharded runs without a :class:`~repro.runtime.faults.FaultPlan` —
healthy k in {1, 4} on two instances, ``make shard``'s healthy run and
partition sweeps (bench tiny, k=8, seeds 2007), and the mechanism phases
of the ``byzantine`` and ``splitbrain`` catalog scenarios.  Only the
``byzantine`` pin was re-recorded afterwards, for the deliberate
quarantine wait-out noted at its entry.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs.report import bench_config
from repro.runtime.scenario import CATALOG, materialize
from repro.runtime.shard import PartitionSchedule, ShardedAGTRam

PINS = {
    "healthy/tiny/k1": (
        "dc7bb3525e49444d69d0d647132b6673c5c8960395ec2ab4f57d5c42d97fd6de",
        "3819fd66f18f328bd6ecb430ed33e193dfd010d451f56de0be2d09bfa46042b6",
        "2fb77b2a57a501075670e15e1fe71fd9cd427cfd3afa37e9e74372505fe0fd73",
        14,
    ),
    "healthy/tiny/k4": (
        "712fc9b9c106549ddffcbbeb1ad28e97d0b8f54bf73f42fbe0d5e1c85d12b3ae",
        "3819fd66f18f328bd6ecb430ed33e193dfd010d451f56de0be2d09bfa46042b6",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        7,
    ),
    "healthy/read_heavy/k1": (
        "506b19fec08163238a46729d94559dd2ef69cb6dfe5b33737405d51d4bb737b9",
        "666d03514ad9dd29f52c0d46a2ce672026df884a55a2966699fee977bae11cf3",
        "13e1e5e3cd7d61fb6e32c5a1384baed973167c05881b552db0203ca18e3dd004",
        190,
    ),
    "healthy/read_heavy/k4": (
        "a3e5a4b4fb9a47e82e6f0d88c749fda38fc316a78be8c5f363f6eec8eeda145d",
        "5a67aaf800fd9199ef5e608a3bb9dfbf62cc27e462142a2b8b754856ed38e13e",
        "0ea95c19e11682087a60a54db2f23e7e6b024594016670f1496efdb7becb69f2",
        80,
    ),
    "shard/healthy": (
        "aac7ba8ce64ca441af2967d5beb79f58bdb594d0fd0790334ed5b3741adee20e",
        "66d2d2ce05dc18836eaa5598c7ac3613381283b2e83d61719e53fa1b5f43ff8f",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        13,
    ),
    "shard/0.0": (
        "aac7ba8ce64ca441af2967d5beb79f58bdb594d0fd0790334ed5b3741adee20e",
        "66d2d2ce05dc18836eaa5598c7ac3613381283b2e83d61719e53fa1b5f43ff8f",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        13,
    ),
    "shard/0.25": (
        "078186ca52665bc6ecd6c5ab1097e0ecd941a83ee8fa09286cfc8a672b6cf647",
        "66d2d2ce05dc18836eaa5598c7ac3613381283b2e83d61719e53fa1b5f43ff8f",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        13,
    ),
    "shard/0.5": (
        "078186ca52665bc6ecd6c5ab1097e0ecd941a83ee8fa09286cfc8a672b6cf647",
        "66d2d2ce05dc18836eaa5598c7ac3613381283b2e83d61719e53fa1b5f43ff8f",
        "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        13,
    ),
    # Re-pinned on purpose: the parent stopped at round 41 while agent 0
    # sat out a finite quarantine; a quiet round with quarantined
    # bidders no longer ends the game, so the run waits out the
    # probation and places 97 replicas (parent 94; payments unchanged).
    "scenario/byzantine": (
        "842aee6098cd6a8bc924f47c7fbdf083dbcb5b7e0ec0805762edc41744da8363",
        "52db877c80f4624f331e5d34b671872b7eb80ed7519b5ad3225e40b1107eaa92",
        "91f852f8fa907f24f95bc4faf7d0e2fb073b399dbc33fb79b6cd29fa0e87cf8d",
        49,
    ),
    "scenario/splitbrain": (
        "9e0882c9a9b88a4671138795a053d3b35172703a87aeff41902d2549dea3560d",
        "0503d47e6683f0b7d078076b656f9ae6c02581f0303a834ea2977d126fe83363",
        "969915e0af8a646b0dfec31a637305999041574b4b371f087af25c50695c0860",
        29,
    ),
}

_INSTANCES = {
    "tiny": ExperimentConfig(
        n_servers=16, n_objects=60, total_requests=8_000, seed=101,
        name="tiny",
    ),
    "read_heavy": ExperimentConfig(
        n_servers=20, n_objects=80, total_requests=15_000, rw_ratio=0.95,
        capacity_fraction=0.45, seed=7, name="read-heavy",
    ),
}


def _case(name):
    """(instance, runtime) for one pinned case."""
    kind, what = name.split("/", 1)
    if kind == "healthy":
        inst_name, k = what.split("/")
        inst = paper_instance(_INSTANCES[inst_name])
        return inst, ShardedAGTRam(n_regions=int(k[1:]), seed=0)
    if kind == "shard":
        inst = paper_instance(bench_config("tiny"))
        if what == "healthy":
            return inst, ShardedAGTRam(n_regions=8, seed=2007)
        plan = PartitionSchedule.random(
            n_regions=8, horizon=13, seed=2007,
            partition_fraction=float(what), mean_width=6.0, n_islands=2,
            crash_rate=0.01,
        )
        return inst, ShardedAGTRam(n_regions=8, plan=plan, seed=2007)
    scenario = CATALOG[what]
    mat = materialize(scenario)
    assert mat.fault_plan is None
    return mat.instance, ShardedAGTRam(
        n_regions=scenario.regions, plan=mat.partition,
        adversary=mat.adversary, quarantine=mat.quarantine,
        seed=mat.shard_seed,
    )


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_reproduces_pinned_stream(name):
    inst, runtime = _case(name)
    with ev.logical_time(), ev.capture() as sink:
        result = runtime.run(inst)
    blob = "\n".join(
        json.dumps(e.to_dict(), sort_keys=True) for e in sink.iter_events()
    )
    stream, x, payments, rounds = PINS[name]
    assert _sha(blob.encode()) == stream
    assert _sha(np.ascontiguousarray(result.state.x).tobytes()) == x
    assert _sha(
        np.asarray(result.extra["payments"], dtype=np.float64).tobytes()
    ) == payments
    assert result.rounds == rounds
