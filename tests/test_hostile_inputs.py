"""Hostile input files fail with one typed error, never a raw traceback.

A seeded fuzz over truncations and single-bit flips of a small binary
(REVB) event log, a JSONL event log and a saved ``.npz`` instance: every
mutated file either decodes or raises
:class:`~repro.errors.CorruptInputError` (a ``ValueError``).  A JSONL
record that parses but holds a value of the wrong type for its field is
rejected the same way, naming the line.  The CLI maps such files — and
missing ones — to ``error: …`` and exit 2.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.agt_ram import run_agt_ram
from repro.errors import (
    ConfigurationError,
    CorruptInputError,
    InfeasibleInstanceError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.io import load_instance, save_instance
from repro.obs import events as ev
from repro.obs.export import (
    iter_events_binary,
    iter_events_jsonl,
    read_events_binary,
    read_events_jsonl,
    write_events_binary,
    write_events_jsonl,
)
from repro.runtime.scenario import MAX_HORIZON, MAX_N_REQUESTS

#: Single-bit flips drawn per file (plus every truncation length on a
#: stride); seeded, so a failure replays exactly.
FLIPS = 150
SEED = 20261017


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    inst = paper_instance(
        ExperimentConfig(
            n_servers=6, n_objects=10, total_requests=500, seed=1, name="fuzz"
        )
    )
    with ev.logical_time(), ev.capture() as sink:
        run_agt_ram(inst)
    events = list(sink.iter_events())
    return {
        "revb": write_events_binary(events, root / "events.revb").read_bytes(),
        "jsonl": write_events_jsonl(events, root / "events.jsonl").read_bytes(),
        "npz": save_instance(inst, root / "instance").read_bytes(),
    }


DECODERS = {
    "revb": (read_events_binary, lambda p: list(iter_events_binary(p))),
    "jsonl": (read_events_jsonl, lambda p: list(iter_events_jsonl(p))),
    "npz": (load_instance,),
}


def _mutations(data: bytes, seed: int):
    """Truncations at a stride, then single-bit flips at seeded spots."""
    stride = max(1, len(data) // 40)
    for n in range(0, len(data), stride):
        yield f"truncated to {n}", data[:n]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        pos = int(rng.integers(len(data)))
        bit = int(rng.integers(8))
        flipped = bytearray(data)
        flipped[pos] ^= 1 << bit
        yield f"bit {bit} of byte {pos} flipped", bytes(flipped)


@pytest.mark.parametrize("kind", sorted(DECODERS))
def test_every_mutation_decodes_or_raises_the_typed_error(
    kind, originals, tmp_path
):
    path = tmp_path / f"mutant.{kind}"
    for label, data in _mutations(originals[kind], SEED):
        path.write_bytes(data)
        for decode in DECODERS[kind]:
            try:
                decode(path)
            except CorruptInputError as exc:
                assert str(path) in str(exc), label
            except Exception as exc:  # pragma: no cover - the failure path
                pytest.fail(
                    f"{kind} {label}: {type(exc).__name__}: {exc}"
                )


def test_typed_error_is_a_value_error():
    assert issubclass(CorruptInputError, ConfigurationError)
    assert issubclass(CorruptInputError, ValueError)


def test_cli_audit_of_a_flipped_log_is_a_usage_error(
    originals, tmp_path, capsys
):
    data = bytearray(originals["revb"])
    data[40] ^= 0x10  # inside the kind table
    path = tmp_path / "flipped.revb"
    path.write_bytes(bytes(data))
    assert main(["audit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """The JSONL log of an 8x20 run, as text lines."""
    inst = paper_instance(
        ExperimentConfig(
            n_servers=8, n_objects=20, total_requests=2000, seed=3, name="t"
        )
    )
    with ev.logical_time(), ev.capture() as sink:
        run_agt_ram(inst)
    path = tmp_path_factory.mktemp("typed") / "events.jsonl"
    return write_events_jsonl(sink.iter_events(), path).read_text().splitlines()


#: (record type, field, tampered value): each decodes as JSON but has
#: the wrong type for its field.
_TAMPERED = [
    ("bid", "value", "x"),
    ("bid", "agent", [1]),
    ("payment", "amount", [1]),
    ("bid", "agent", "x"),
    ("winner", "obj_size", True),
    ("round_end", "committed", 1.0),
]


@pytest.mark.parametrize("kind, name, value", _TAMPERED)
def test_a_mistyped_field_is_a_usage_error_naming_the_line(
    small_log, kind, name, value, tmp_path, capsys
):
    import json

    lines = list(small_log)
    i = next(
        i for i, line in enumerate(lines) if json.loads(line).get("type") == kind
    )
    record = json.loads(lines[i])
    record[name] = value
    lines[i] = json.dumps(record, sort_keys=True)
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptInputError, match=f"line {i + 1}: {kind} field"):
        read_events_jsonl(path)
    assert main(["audit", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line {i + 1}" in err


@pytest.mark.parametrize("record", [
    {"type": "timeout", "t": 0.0, "agents": [1.5]},
    {"type": "timeout", "t": 0.0, "agents": 3},
    {"type": "timeout", "t": 0.0, "quorum_met": 1},
    {"type": "serve_start", "t": 0.0, "replicas": [[1]]},
    {"type": "serve_start", "t": 0.0, "replicas": [[1, True]]},
    {"type": "partition", "t": 0.0, "islands": ["0"]},
    {"type": "round_start", "t": None},
    {"type": "run_start", "t": 0.0, "algorithm": 7},
])
def test_parse_event_checks_each_field_against_its_annotation(record):
    with pytest.raises(TypeError, match=f"{record['type']} field"):
        ev.parse_event(record)


def test_parse_event_accepts_the_json_forms_of_every_shape():
    event = ev.parse_event({
        "type": "reconcile", "t": 3, "conflicts": [1, 2], "kept": [[0, 1]],
        "revoked": [], "refunded_capacity": 4, "refunded_payment": 2,
    })
    assert event == ev.ReconcileEvent(
        t=3.0, conflicts=(1, 2), kept=((0, 1),), refunded_capacity=4,
        refunded_payment=2.0,
    )


def test_trailing_garbage_after_a_record_is_rejected(small_log, tmp_path):
    lines = list(small_log)
    lines[3] += " {}"
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptInputError, match="line 4: Extra data"):
        read_events_jsonl(path)


@pytest.mark.parametrize("case", ["missing", "truncated", "foreign"])
def test_cli_run_on_a_bad_instance_is_a_usage_error(
    case, originals, tmp_path, capsys
):
    path = tmp_path / "instance.npz"
    if case == "truncated":
        path.write_bytes(originals["npz"][:200])
    elif case == "foreign":
        path.write_bytes(originals["jsonl"])
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_an_infeasible_instance_file_keeps_its_error_type(tmp_path):
    """A file that decodes but describes an infeasible instance is not
    corrupt: the domain error keeps its type and names the file."""
    inst = paper_instance(
        ExperimentConfig(
            n_servers=6, n_objects=10, total_requests=500, seed=1, name="fuzz"
        )
    )
    path = tmp_path / "infeasible.npz"
    np.savez_compressed(
        path, cost=inst.cost, reads=inst.reads, writes=inst.writes,
        sizes=inst.sizes, capacities=np.zeros_like(inst.capacities),
        primaries=inst.primaries,
    )
    with pytest.raises(InfeasibleInstanceError, match=str(path)) as info:
        load_instance(path)
    assert not isinstance(info.value, CorruptInputError)


# -- scenario JSON -----------------------------------------------------------

#: What a mutated scenario JSON puts in place of one value.
_HOSTILE_VALUES = (
    None, "x", -1, 0, 1.5, 2**40, True, [], {}, [1], [[1]], ["bribe"],
    {"a": 1}, [None, None], -0.5, MAX_HORIZON + 1, MAX_N_REQUESTS + 1,
)


def _scenario_mutations(seed: int, n: int):
    """Seeded single-value mutations of the catalog scenarios' JSON."""
    import copy
    import random

    from repro.runtime.scenario import CATALOG

    rng = random.Random(seed)
    bases = [sc.to_dict() for sc in CATALOG.values()]
    for _ in range(n):
        doc = copy.deepcopy(rng.choice(bases))
        # Walk down to a random container, then replace or drop a key.
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            if not keys:
                break
            key = rng.choice(list(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
                node = child
                continue
            if isinstance(node, dict) and rng.random() < 0.15:
                del node[key]
            else:
                node[key] = rng.choice(_HOSTILE_VALUES)
            break
        yield doc


def test_every_scenario_mutation_decodes_or_raises_the_typed_error():
    from repro.runtime.scenario import Scenario

    decoded = rejected = 0
    for doc in _scenario_mutations(SEED, 600):
        try:
            sc = Scenario.from_dict(doc)
        except ConfigurationError:
            rejected += 1
        else:
            decoded += 1
            assert Scenario.from_dict(sc.to_dict()) == sc
    assert decoded and rejected
    for doc in ([], "smoke", 7, None):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict(doc)


@pytest.mark.parametrize("name, cap", [
    ("horizon", MAX_HORIZON), ("n_requests", MAX_N_REQUESTS),
])
def test_scenario_horizon_and_request_count_are_capped(name, cap):
    from repro.runtime.scenario import CATALOG, Scenario

    doc = CATALOG["smoke"].to_dict()
    assert Scenario.from_dict({**doc, name: cap}) is not None
    with pytest.raises(ConfigurationError, match=name):
        Scenario.from_dict({**doc, name: cap + 1})


def test_cli_replays_a_scenario_file_or_rejects_it(tmp_path, capsys):
    import json

    from repro.runtime.scenario import CATALOG

    good = tmp_path / "smoke_scenario.json"
    good.write_text(json.dumps(CATALOG["smoke"].to_dict()))
    assert main(["resilience", "--scenario", str(good), "--no-shrink",
                 "--out-dir", str(tmp_path)]) == 0
    bad = tmp_path / "bad_scenario.json"
    for content in ('{"faults": 3}', '{"adversary": {"window": [1]}}',
                    '{"regions": 50}', "[1, 2]", "not json",
                    '{"horizon": 1000000}', '{"n_requests": 100000000}'):
        bad.write_text(content)
        rc = main(["resilience", "--scenario", str(bad),
                   "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "Traceback" not in err
