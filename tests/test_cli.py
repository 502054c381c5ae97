"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

FAST = ["--servers", "12", "--objects", "40", "--requests", "4000", "--seed", "3"]


class TestGenerate:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.npz"
        rc = main(["generate", *FAST, "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_roundtrip_through_run(self, tmp_path, capsys):
        out = tmp_path / "inst.npz"
        main(["generate", *FAST, "-o", str(out)])
        rc = main(["run", "--instance", str(out), "-a", "AGT-RAM"])
        assert rc == 0
        assert "AGT-RAM" in capsys.readouterr().out


class TestRun:
    def test_default_algorithm(self, capsys):
        rc = main(["run", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert "savings" in out

    def test_save_result(self, tmp_path, capsys):
        rc = main(["run", *FAST, "-o", str(tmp_path / "res")])
        assert rc == 0
        assert (tmp_path / "res.json").exists()
        assert (tmp_path / "res.npz").exists()

    @pytest.mark.parametrize("alg", ["Greedy", "DA"])
    def test_other_algorithms(self, alg, capsys):
        rc = main(["run", *FAST, "-a", alg])
        assert rc == 0
        assert alg in capsys.readouterr().out

    def test_engine_reported(self, capsys):
        rc = main(["run", *FAST, "-a", "AGT-RAM"])
        assert rc == 0
        assert "engine vectorized" in capsys.readouterr().out

    def test_engines_agree_on_otc(self, capsys):
        from repro.cli import _instance_from_args, build_parser
        from repro.obs.equivalence import reference_agt_ram

        main(["run", *FAST])
        out = capsys.readouterr().out
        instance = _instance_from_args(build_parser().parse_args(["run", *FAST]))
        ref = reference_agt_ram(instance)
        # The delta-engine run reproduces the reference oracle's scheme.
        assert f"OTC {ref.otc:,.0f}  savings {ref.savings_percent:.2f}%" in out
        assert f"replicas {ref.replicas_allocated}" in out

    def test_bad_engine_rejected(self):
        # The engine is fixed; ``--engine`` is not a flag.
        with pytest.raises(SystemExit):
            main(["run", *FAST, "--engine", "turbo"])


class TestAuditCompareEngines:
    def test_identity_check_passes(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity : OK" in out
        assert "audit    : OK" in out
        assert "speedup" in out

    def test_impossible_speedup_gate_fails(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1", "--min-speedup", "1000000",
                   "--retries", "0"])
        assert rc == 1
        assert "below required" in capsys.readouterr().err

    def test_speedup_gate_retries_before_failing(self, capsys):
        rc = main(["audit", "--compare-engines", "--scale", "tiny",
                   "--repeats", "1", "--min-speedup", "1000000",
                   "--retries", "2"])
        assert rc == 1
        assert capsys.readouterr().err.count("re-measuring") == 2

    def test_no_log_and_no_compare_is_usage_error(self, capsys):
        rc = main(["audit"])
        assert rc == 2
        assert "provide an event log" in capsys.readouterr().err


class TestCompare:
    def test_subset(self, capsys):
        rc = main(["compare", *FAST, "--algorithms", "AGT-RAM", "Greedy"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "AGT-RAM" in out and "Greedy" in out


class TestSweep:
    def test_capacity_sweep(self, capsys):
        rc = main(
            ["sweep", *FAST, "--param", "capacity", "--values", "0.1", "0.3",
             "--algorithms", "AGT-RAM", "--no-chart"]
        )
        assert rc == 0
        assert "capacity" in capsys.readouterr().out

    def test_rw_sweep_with_chart(self, capsys):
        rc = main(
            ["sweep", *FAST, "--param", "rw", "--values", "0.6", "0.95",
             "--algorithms", "AGT-RAM", "Greedy"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "o = AGT-RAM" in out  # chart legend


class TestAxioms:
    def test_all_pass(self, capsys):
        rc = main(["axioms", *FAST])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "-a", "Magic"])


class TestReproduce:
    def test_fig3_only(self, capsys):
        rc = main(["reproduce", "--scale", "tiny", "--targets", "fig3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "AGT-RAM" in out

    def test_tables(self, capsys):
        rc = main(["reproduce", "--scale", "tiny", "--targets", "table2"])
        assert rc == 0
        assert "Table 2" in capsys.readouterr().out

    def test_bad_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--targets", "fig9"])


class TestSweepCsv:
    def test_csv_written(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main(
            ["sweep", *FAST, "--param", "capacity", "--values", "0.2",
             "--algorithms", "AGT-RAM", "--no-chart", "--csv", str(out)]
        )
        assert rc == 0
        assert out.exists()
        text = out.read_text()
        assert "AGT-RAM" in text and "savings_percent" in text


class TestChaos:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        faults = tmp_path / "faults.json"
        events = tmp_path / "events.jsonl"
        rc = main(
            ["chaos", *FAST, "--fault-seed", "5",
             "--central-crash-rate", "0.03",
             "--max-degradation", "1.5",
             "--report", str(report), "--fault-log", str(faults),
             "--events", str(events)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out and "verdict: PASS" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "repro-chaos"
        (run,) = doc["runs"]
        assert run["feasible"] and run["audits"]["sharded_ok"]
        assert run["otc_degradation"] >= 0
        assert run["placement"]["messages"] >= doc["baseline"]["messages"]
        plan = json.loads(faults.read_text())
        assert plan["plan"]["seed"] == 5
        # The recorded log passes the offline audit CLI too.
        assert main(["audit", str(events)]) == 0

    def test_same_fault_seed_same_event_log(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            rc = main(
                ["chaos", *FAST, "--fault-seed", "9", "--events", str(path)]
            )
            assert rc == 0
            logs.append(path.read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_degradation_gate_fails(self, tmp_path, capsys):
        # An impossible bound (chaos OTC can never be 0.5x the clean
        # OTC on the same instance) must trip the gate.
        rc = main(["chaos", *FAST, "--max-degradation", "0.5"])
        capsys.readouterr()
        assert rc == 1


class TestAdversary:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        events = tmp_path / "events.jsonl"
        rc = main(
            ["adversary", *FAST, "--adv-seed", "3",
             "--fraction", "0.25", "--fraction", "0.4",
             "--min-recall", "0.95", "--max-degradation", "1.5",
             "--report", str(report), "--events", str(events)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "adversary campaign" in out and "verdict: PASS" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "repro-adversary"
        assert doc["ok"] and not doc["failures"]
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            assert run["feasible"] and run["audits"]["sharded_ok"]
            assert run["detection"]["recall"] >= 0.95
            assert run["detection"]["false_quarantines"] == []
            assert run["detection"]["injected"] > 0
        # The recorded log passes the offline audit CLI too.
        assert main(["audit", str(events)]) == 0

    def test_same_adv_seed_same_report(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = main(
                ["adversary", *FAST, "--adv-seed", "7",
                 "--fraction", "0.3", "--report", str(path)]
            )
            assert rc == 0
            docs.append(path.read_bytes())
        capsys.readouterr()
        assert docs[0] == docs[1]

    def test_impossible_recall_gate_fails(self, tmp_path, capsys):
        rc = main(
            ["adversary", *FAST, "--fraction", "0.3", "--min-recall", "1.1"]
        )
        capsys.readouterr()
        assert rc == 1

    def test_unknown_behavior_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["adversary", *FAST, "--fraction", "0.3",
                 "--behaviors", "bribe"]
            )
        capsys.readouterr()

SERVE_FAST = [
    "--servers", "8", "--objects", "24", "--requests", "3000",
    "--capacity", "0.5", "--seed", "3", "--serve-requests", "1500",
]


class TestServe:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        events = tmp_path / "events.jsonl"
        rc = main(
            ["serve", *SERVE_FAST, "--workload", "worldcup",
             "--crash-rate", "0.05", "--straggler-rate", "0.02",
             "--fault-seed", "5", "--min-availability", "0.98",
             "--report", str(report), "--events", str(events)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving campaign" in out and "verdict: PASS" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "repro-serve"
        assert doc["ok"] and not doc["failures"]
        (run,) = doc["runs"]
        assert run["audits"]["serving_ok"] and run["audits"]["reauction_ok"]
        assert run["serving"]["availability"] >= 0.98
        assert run["serving"]["served"] + run["serving"]["failed"] == 1500
        # The recorded log passes the offline audit CLI too.
        assert main(["audit", str(events)]) == 0

    def test_same_seed_byte_identical_artifacts(self, tmp_path, capsys):
        artifacts = []
        for name in ("a", "b"):
            report = tmp_path / f"{name}.json"
            events = tmp_path / f"{name}.jsonl"
            rc = main(
                ["serve", *SERVE_FAST, "--crash-rate", "0.05",
                 "--fault-seed", "7",
                 "--report", str(report), "--events", str(events)]
            )
            assert rc == 0
            artifacts.append(report.read_bytes() + events.read_bytes())
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_drift_workload_reauctions(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        rc = main(
            ["serve", *SERVE_FAST, "--workload", "drift",
             "--drift-window", "400", "--report", str(report)]
        )
        assert rc == 0
        capsys.readouterr()
        (run,) = json.loads(report.read_text())["runs"]
        assert run["serving"]["reauctions"] >= 1
        assert run["audits"]["serving_ok"] and run["audits"]["reauction_ok"]

    def test_availability_gate_fails(self, capsys):
        rc = main(["serve", *SERVE_FAST, "--min-availability", "1.01"])
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", *SERVE_FAST, "--workload", "nope"])
        capsys.readouterr()


class TestShard:
    def test_campaign_writes_artifacts_and_passes(self, tmp_path, capsys):
        import json

        report = tmp_path / "report.json"
        events = tmp_path / "events.jsonl"
        plans = tmp_path / "plans.json"
        rc = main(
            ["shard", *FAST, "--regions", "8", "--shard-seed", "2007",
             "--partition-seed", "2007", "--crash-rate", "0.01",
             "--check-null", "--max-degradation", "1.0",
             "--report", str(report), "--events", str(events),
             "--plan-out", str(plans)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shard campaign" in out and "verdict: PASS" in out
        doc = json.loads(report.read_text())
        assert doc["kind"] == "repro-shard"
        assert doc["ok"] and not doc["failures"]
        # The headline claim: the sharded protocol at least halves the
        # single-central message traffic while healthy.
        assert doc["message_reduction"] >= 2.0
        for run in doc["runs"]:
            assert run["feasible"] and run["audits"]["sharded_ok"]
            assert run["otc_degradation"] >= 0.0
        assert json.loads(plans.read_text())
        # The recorded region-tagged log passes the sharded audit CLI.
        assert main(["audit", "--sharded", str(events)]) == 0

    def test_same_seeds_byte_identical_artifacts(self, tmp_path, capsys):
        artifacts = []
        for name in ("a", "b"):
            report = tmp_path / f"{name}.json"
            events = tmp_path / f"{name}.jsonl"
            rc = main(
                ["shard", *FAST, "--shard-seed", "11",
                 "--partition-seed", "13",
                 "--report", str(report), "--events", str(events)]
            )
            assert rc == 0
            artifacts.append(report.read_bytes() + events.read_bytes())
        capsys.readouterr()
        assert artifacts[0] == artifacts[1]

    def test_plan_file_round_trip(self, tmp_path, capsys):
        import json

        plans = tmp_path / "plans.json"
        rc = main(
            ["shard", *FAST, "--fraction", "0.5", "--plan-out", str(plans)]
        )
        assert rc == 0
        stored = json.loads(plans.read_text())
        plan_file = tmp_path / "one.json"
        plan_file.write_text(json.dumps(next(iter(stored.values()))))
        rc = main(["shard", *FAST, "--plan", str(plan_file)])
        capsys.readouterr()
        assert rc == 0

    @pytest.mark.parametrize(
        "content",
        [None, "not json", '{"windows": [{"end": 3}]}', '{"n_regions": 2}'],
        ids=["missing", "not-json", "missing-key", "region-mismatch"],
    )
    def test_bad_plan_file_is_usage_error(self, tmp_path, capsys, content):
        # Hostile plan files are usage errors (exit 2), not a traceback
        # and not a gate failure (exit 1).
        plan_file = tmp_path / "plan.json"
        if content is not None:
            plan_file.write_text(content)
        rc = main(["shard", *FAST, "--plan", str(plan_file)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_message_reduction_gate_fails(self, capsys):
        # No protocol change can cut traffic 100x on this instance.
        rc = main(["shard", *FAST, "--min-message-reduction", "100"])
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out

class TestResilience:
    def test_smoke_scenario_passes_and_writes_report(self, tmp_path, capsys):
        import json

        rc = main(
            ["resilience", "--scenario", "smoke",
             "--out-dir", str(tmp_path), "--report", "r.json"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "resilience campaign" in out and "verdict: PASS" in out
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["kind"] == "repro-resilience"
        assert doc["ok"] and not doc["failures"]
        (run,) = doc["runs"]
        assert run["scenario"]["name"] == "smoke"
        assert run["invariants"]["violations"] == 0
        assert run["audits"]["sharded_ok"]

    def test_lottery_is_deterministic(self, tmp_path, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            rc = main(
                ["resilience", "--scenario", "smoke",
                 "--lottery", "1", "--lottery-seed", "4",
                 "--no-shrink", "--out-dir", str(tmp_path),
                 "--report", name]
            )
            capsys.readouterr()
            docs.append((tmp_path / name).read_bytes())
        assert docs[0] == docs[1]

    def test_failing_scenario_shrinks_to_a_repro_file(
        self, tmp_path, capsys, monkeypatch
    ):
        import dataclasses
        import json

        from repro.runtime import scenario as sc_mod

        broken = dataclasses.replace(
            sc_mod.CATALOG["smoke"], name="broken", min_availability=1.01
        )
        monkeypatch.setattr(sc_mod, "CATALOG", {"broken": broken})
        rc = main(
            ["resilience", "--scenario", "broken",
             "--out-dir", str(tmp_path), "--report", "r.json"]
        )
        out = capsys.readouterr()
        assert rc == 1
        assert "verdict: FAIL" in out.out
        assert "shrunk broken" in out.out
        repro_file = tmp_path / "broken_scenario.json"
        mini = sc_mod.Scenario.from_dict(
            json.loads(repro_file.read_text())
        )
        assert mini.name == "broken-shrunk"
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["runs"][0]["shrunk_scenario"]["name"] == "broken-shrunk"

    def test_unknown_scenario_rejected(self, capsys):
        rc = main(["resilience", "--scenario", "nope"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown scenario" in err

    def test_event_export_passes_sharded_audit(self, tmp_path, capsys):
        rc = main(
            ["resilience", "--scenario", "smoke",
             "--out-dir", str(tmp_path), "--events", "ev.jsonl"]
        )
        assert rc == 0
        capsys.readouterr()
        # The exported composed log replays through the audit CLI.
        assert main(
            ["audit", "--sharded", str(tmp_path / "ev.jsonl")]
        ) == 0
        capsys.readouterr()


class TestOutDirRouting:
    def test_relative_artifacts_land_in_out_dir(self, tmp_path, capsys):
        out = tmp_path / "nested" / "artifacts"
        rc = main(
            ["chaos", *FAST, "--out-dir", str(out),
             "--report", "report.json", "--events", "events.jsonl"]
        )
        capsys.readouterr()
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "events.jsonl").exists()

    def test_absolute_paths_are_untouched(self, tmp_path, capsys):
        report = tmp_path / "abs_report.json"
        rc = main(
            ["chaos", *FAST, "--out-dir", str(tmp_path / "ignored"),
             "--report", str(report)]
        )
        capsys.readouterr()
        assert rc == 0
        assert report.exists()
        assert not (tmp_path / "ignored" / "abs_report.json").exists()


class TestBadValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", *FAST, "--drop", "2"],
            ["chaos", *FAST, "--quorum", "1.5"],
            ["chaos", "--servers", "0"],
            ["adversary", *FAST, "--fraction", "1.5"],
            ["adversary", *FAST, "--probation", "-1"],
            ["shard", *FAST, "--regions", "0"],
            ["serve", *SERVE_FAST, "--max-attempts", "0"],
            ["serve", *SERVE_FAST, "--requests-per-round", "0"],
            ["serve", *SERVE_FAST, "--serve-requests", "0"],
        ],
        ids=lambda argv: " ".join([argv[0], *argv[-2:]]),
    )
    def test_bad_value_is_usage_error(self, argv, tmp_path, capsys):
        # A bad flag value is a usage error (exit 2, one `error:` line),
        # not a gate failure (exit 1) and not a traceback.
        rc = main([*argv, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_campaigns_run_only_through_the_scenario_executor():
    # Every campaign runs, checks and audits through
    # repro.runtime.scenario.execute; the CLI itself calls none of the
    # runtime, serving, feasibility or audit entry points.
    import ast
    import inspect

    import repro.cli

    tree = ast.parse(inspect.getsource(repro.cli))
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert "execute" in called
    assert not called & {
        "ShardedAGTRam", "serve", "check_state", "audit_events",
        "audit_sharded_events", "audit_serving_events",
        "recovery_accounting",
    }
