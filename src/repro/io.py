"""Serialization of instances, schemes, and results.

Long sweeps want checkpointing and post-hoc analysis wants the raw
schemes; this module persists them with numpy's ``.npz`` container plus
a JSON sidecar for human-readable metadata — no pickle, so files are
portable and safe to load.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.drp.instance import DRPInstance
from repro.drp.state import ReplicationState
from repro.errors import (
    ConfigurationError,
    CorruptInputError,
    InfeasibleInstanceError,
    decoding,
)
from repro.result import PlacementResult

PathLike = Union[str, Path]

_INSTANCE_KEYS = ("cost", "reads", "writes", "sizes", "capacities", "primaries")

#: Format version written into every file; bump on layout changes.
FORMAT_VERSION = 1


def save_instance(instance: DRPInstance, path: PathLike) -> Path:
    """Write a DRP instance to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(
        path,
        cost=instance.cost,
        reads=instance.reads,
        writes=instance.writes,
        sizes=instance.sizes,
        capacities=instance.capacities,
        primaries=instance.primaries,
        _meta=np.array(
            json.dumps({"name": instance.name, "version": FORMAT_VERSION})
        ),
    )
    return path


def load_instance(path: PathLike) -> DRPInstance:
    """Load an instance written by :func:`save_instance`.

    Validation runs as usual at construction, so a corrupted or
    hand-edited file fails loudly rather than producing silent nonsense:
    an unreadable or malformed file raises
    :class:`~repro.errors.CorruptInputError` (a ``ConfigurationError``)
    naming the file, a decoded but infeasible instance keeps its
    :class:`~repro.errors.InfeasibleInstanceError`, and a missing file
    raises ``FileNotFoundError``.
    """
    path = Path(path)
    with decoding(path), np.load(path, allow_pickle=False) as data:
        missing = [k for k in _INSTANCE_KEYS if k not in data]
        if missing:
            raise CorruptInputError(
                f"{path} is not a DRP instance file (missing {missing})"
            )
        meta = {}
        if "_meta" in data:
            try:
                meta = json.loads(str(data["_meta"]))
            except (json.JSONDecodeError, TypeError):
                meta = {}
        if not isinstance(meta, dict):
            meta = {}
        try:
            return DRPInstance(
                cost=data["cost"],
                reads=data["reads"],
                writes=data["writes"],
                sizes=data["sizes"],
                capacities=data["capacities"],
                primaries=data["primaries"],
                name=str(meta.get("name", path.stem)),
            )
        except InfeasibleInstanceError as exc:
            # Add the file path so a bad instance in a sweep directory
            # is locatable from the message alone.
            raise type(exc)(f"{path}: {exc}") from exc


def save_scheme(state: ReplicationState, path: PathLike) -> Path:
    """Persist a replication scheme (the X matrix; NN tables are derived)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez_compressed(path, x=state.x)
    return path


def load_scheme(instance: DRPInstance, path: PathLike) -> ReplicationState:
    """Load a scheme saved by :func:`save_scheme` against ``instance``."""
    with np.load(Path(path), allow_pickle=False) as data:
        if "x" not in data:
            raise ConfigurationError(f"{path} is not a replication-scheme file")
        return ReplicationState.from_matrix(instance, data["x"])


def result_summary(result: PlacementResult) -> dict:
    """JSON-serializable summary of a placement result (no arrays)."""
    return {
        "algorithm": result.algorithm,
        "otc": result.otc,
        "savings_percent": result.savings_percent,
        "runtime_s": result.runtime_s,
        "rounds": result.rounds,
        "replicas": result.replicas_allocated,
    }


def save_result(result: PlacementResult, path: PathLike) -> Path:
    """Write a result: scheme as ``.npz`` plus a ``.json`` summary."""
    path = Path(path)
    base = path.with_suffix("") if path.suffix in (".json", ".npz") else path
    save_scheme(result.state, base.with_suffix(".npz"))
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(result_summary(result), indent=2))
    return json_path


def load_result_summary(path: PathLike) -> dict:
    """Read back the JSON summary written by :func:`save_result`."""
    data = json.loads(Path(path).read_text())
    required = {"algorithm", "otc", "savings_percent"}
    if not required <= set(data):
        raise ConfigurationError(f"{path} is not a result summary file")
    return data
