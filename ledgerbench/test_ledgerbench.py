"""Tests of the layer-ledger benchmark on its tiny configurations.

Run from the repository root::

    python3 -m pytest ledgerbench -q

Every workload runs at ``--scale tiny``, so the output checks, the
traced/untraced comparison and the span output take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for _path in (str(ROOT / "src"), str(BENCH_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads as W  # noqa: E402
from ledger import Ledger  # noqa: E402


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_passes_agree(name, tmp_path):
    wl = W.WORKLOADS[name]
    ctx = wl.setup("tiny")
    relabel = W.Relabeling.draw(7, 0, ctx["m"], ctx["n"])
    plain, traced = Ledger(traced=False), Ledger(traced=True)
    wl.prepare(ctx, plain)
    a = wl.run_pass(ctx, plain, relabel, tmp_path)
    b = wl.run_pass(ctx, traced, relabel, tmp_path)
    assert a.failures == [] and b.failures == []
    # Rounds, OTC, event count and export bytes are all in the fingerprint.
    assert a.fingerprint == b.fingerprint
    # The repo's tracer stays off inside every timed call of both passes.
    assert plain.tracer_flags and not any(plain.tracer_flags)
    assert len(traced.tracer_flags) == len(traced.spans)
    assert not any(traced.tracer_flags)
    assert set(a.e2e) == set(b.e2e)


def test_relabeling_keeps_the_problem():
    ctx = W.WORKLOADS["auction-dense"].setup("tiny")
    inst = W.paper_instance(ctx["config"])
    relabel = W.Relabeling.draw(3, 1, ctx["m"], ctx["n"])
    moved = relabel.instance(inst)
    assert moved.reads.sum() == inst.reads.sum()
    j = int(relabel.server_ids[0])
    k = int(relabel.object_ids[0])
    assert moved.reads[j, k] == inst.reads[0, 0]
    assert moved.primaries[k] == relabel.server_ids[inst.primaries[0]]
    again = W.Relabeling.draw(3, 1, ctx["m"], ctx["n"])
    assert (again.servers == relabel.servers).all()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_writes_spans_and_every_layer_metric(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(
        ["--workload", name, "--seed", "2", "--seconds", "1", "--trace", "1", "--scale", "tiny"]
    )
    res = _last_json(capsys.readouterr().out)
    assert code == 0 and res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 2
    assert [k for k, _ in W.PER_LAYER] == list(res["metrics"])
    spans = [json.loads(line) for line in (tmp_path / f"spans-{name}-seed2.jsonl").open()]
    assert spans
    ids = {s["id"] for s in spans}
    for span in spans:
        assert {"name", "start", "end", "parent", "run_id", "rss_before_kb", "rss_after_kb"} <= set(span)
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
        assert span["rss_after_kb"] >= span["rss_before_kb"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(
        ["--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0", "--scale", "tiny"]
    )
    res = _last_json(capsys.readouterr().out)
    assert code == 0 and res["correct"]
    assert [k for k, _ in W.END_TO_END] == list(res["metrics"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_failed_output_check_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(W, "check_placement", lambda result: ["forced failure"])
    code = run.main(
        ["--workload", "auction-dense", "--seconds", "1", "--trace", "0", "--scale", "tiny"]
    )
    res = _last_json(capsys.readouterr().out)
    assert code == 1
    assert res["correct"] is False and res["failed"] >= 1


def test_benchmark_alone_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "ledgerbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ledgerbench/run.py", "--workload", "paper-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
