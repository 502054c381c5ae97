"""The campaign commands reproduce their recorded event logs and reports.

``campaign_pins.json`` holds, for one small run of each campaign
command, the sha256 of its ``--events`` log and every leaf of its
``--report`` JSON (flattened to ``a/b/0/c`` paths), recorded before the
five commands were folded onto one scenario executor.  The fold may move
a report value (``RELOCATED`` maps each old path to its new one)
and may add values, but every recorded value must still be there,
unchanged.  ``serve`` now also captures its placement's mechanism run,
so its log gains that run as a prefix: the events from the serving
split on must equal the recorded log, with ``t`` shifted back by the
split's clock value.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

PINS = json.loads(
    (Path(__file__).with_name("campaign_pins.json")).read_text()
)

FAST = ["--servers", "12", "--objects", "40", "--requests", "4000",
        "--seed", "3"]
SERVE_FAST = ["--servers", "8", "--objects", "24", "--requests", "3000",
              "--capacity", "0.5", "--seed", "3", "--serve-requests", "1500"]
CASES = {
    "chaos": ["chaos", *FAST, "--fault-seed", "5",
              "--central-crash-rate", "0.03"],
    "adversary": ["adversary", *FAST, "--adv-seed", "3", "--fraction", "0.25",
                  "--fraction", "0.4", "--min-recall", "0.95"],
    "shard": ["shard", *FAST, "--regions", "4", "--crash-rate", "0.01",
              "--check-null", "--fraction", "0.25", "--fraction", "0.5"],
    "serve": ["serve", *SERVE_FAST, "--workload", "drift",
              "--drift-window", "400", "--crash-rate", "0.05",
              "--straggler-rate", "0.02", "--fault-seed", "5"],
    "smoke": ["resilience", "--scenario", "smoke", "--no-shrink"],
}

#: Old report path -> new one, per campaign; a path also moves every
#: value below it, and ``*`` stands for any run index.
_PLACEMENT = {
    f"runs/*/{key}": f"runs/*/placement/{key}"
    for key in ("otc", "rounds", "messages", "message_counts", "windows",
                "heals", "divergent", "conflicts", "revocations",
                "refunded_capacity", "refunded_payment", "reauctioned",
                "elections", "recoveries", "crashes_injected")
}
RELOCATED: dict[str, dict[str, str]] = {
    "chaos": {
        "chaos": "runs/0/placement",
        "otc_degradation": "runs/0/otc_degradation",
        "feasible": "runs/0/feasible",
        "audit_ok": "runs/0/audits/sharded_ok",
        "audit_violations": "runs/0/audits/sharded_violations",
        "fault_summary": "runs/0/fault_summary",
    },
    "adversary": {
        "runs/*/otc": "runs/*/placement/otc",
        "runs/*/rounds": "runs/*/placement/rounds",
        "runs/*/audit_ok": "runs/*/audits/sharded_ok",
        "runs/*/audit_violations": "runs/*/audits/sharded_violations",
        "runs/*/plan": "runs/*/adversary/plan",
        "runs/*/adversary_summary": "runs/*/adversary/summary",
        "runs/*/trust_summary": "runs/*/adversary/trust",
        **{
            f"runs/*/{key}": f"runs/*/detection/{key}"
            for key in ("injected", "flagged", "recall", "precision",
                        "false_quarantines")
        },
    },
    "serve": {
        "placement": "runs/0/placement",
        "serving": "runs/0/serving",
        "serving_audit_ok": "runs/0/audits/serving_ok",
        "serving_audit_violations": "runs/0/audits/serving_violations",
        "audit_ok": "runs/0/audits/reauction_ok",
        "audit_violations": "runs/0/audits/reauction_violations",
    },
    "shard": {
        **_PLACEMENT,
        "runs/*/message_bytes": "runs/*/placement/bytes",
        "runs/*/audit_ok": "runs/*/audits/sharded_ok",
        "runs/*/audit_violations": "runs/*/audits/sharded_violations",
    },
}


def _flatten(node, prefix=""):
    if isinstance(node, dict):
        out = {}
        for k, v in node.items():
            out.update(_flatten(v, f"{prefix}/{k}" if prefix else str(k)))
        return out
    if isinstance(node, list):
        out = {}
        for i, v in enumerate(node):
            out.update(_flatten(v, f"{prefix}/{i}"))
        if not node:
            out[prefix] = []
        return out
    return {prefix: node}


def _relocate(case: str, path: str) -> str:
    parts = path.split("/")
    index = None
    if len(parts) > 1 and parts[0] == "runs":
        index, parts[1] = parts[1], "*"
    starred = "/".join(parts)
    for old, new in RELOCATED.get(case, {}).items():
        if starred == old or starred.startswith(old + "/"):
            starred = new + starred[len(old):]
            break
    return starred.replace("*", index, 1) if index is not None else starred


def _serving_tail_digest(log: bytes) -> str:
    """sha256 of the header plus the log from its first ``serve_start``
    on, with ``t`` rebased to that event's clock value."""
    header, *lines = log.decode().splitlines()
    records = [json.loads(line) for line in lines]
    split = next(
        i for i, r in enumerate(records) if r["type"] == "serve_start"
    )
    t0 = records[split]["t"]
    out = [header]
    for r in records[split:]:
        r["t"] = r["t"] - t0
        out.append(json.dumps(r, sort_keys=True))
    return hashlib.sha256(("\n".join(out) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_reproduces_pinned_log_and_report(case, tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    report = tmp_path / "report.json"
    rc = main(
        [*CASES[case], "--out-dir", str(tmp_path),
         "--events", str(events), "--report", str(report)]
    )
    capsys.readouterr()
    assert rc == 0
    pinned = PINS[case]
    log = events.read_bytes()
    digest = (
        _serving_tail_digest(log) if case == "serve"
        else hashlib.sha256(log).hexdigest()
    )
    assert digest == pinned["events"]

    got = _flatten(json.loads(report.read_text()))
    moved = {
        path: _relocate(case, path) for path in pinned["report"]
    }
    missing = sorted(p for p, new in moved.items() if new not in got)
    assert not missing, f"report values gone: {missing[:5]}"
    changed = {
        p: (value, got[moved[p]])
        for p, value in pinned["report"].items()
        if got[moved[p]] != value
    }
    assert not changed, f"report values changed: {dict(list(changed.items())[:5])}"
