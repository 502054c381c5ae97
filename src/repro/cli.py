"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
generate   build a DRP instance from knobs and save it to .npz
run        run one placement algorithm on an instance (file or knobs)
compare    run several algorithms and print the comparison table
sweep      capacity or R/W sweep, printed as table + ASCII chart
axioms     run AGT-RAM with an audit and verify the six axioms
bench      machine-readable perf harness (BENCH_*.json + regression diff)
audit      offline axiom verification of a recorded JSONL event log
chaos      seeded fault-injection campaign vs a fault-free baseline
adversary  seeded Byzantine-agent campaign vs the honest baseline
serve      resilient online serving campaign with SLO gates
shard      partition-tolerance campaign for the sharded central
resilience composed failure-plane scenarios, with shrinking and replay

``run`` and ``bench`` accept ``--events`` (JSONL event log),
``--chrome-trace`` (Perfetto-loadable trace) and ``--metrics-out``
(OpenMetrics textfile) to export the observability stream.

The five campaigns are one runner.  Each command only turns its flags
into realized runs (:class:`~repro.runtime.scenario.MaterializedScenario`,
plus the plane-free baseline where it measures degradation) and hands
them to :func:`~repro.runtime.scenario.execute`, which runs, checks,
audits and gates each one; :func:`_finish_campaign` prints the one
table, writes the ``--report`` JSON and exports the last run's events.
Every campaign is deterministic: the planes are seeded and the event
log runs on the logical clock, so same-argument runs write
byte-identical logs and reports.  Exit status 1 means a gate failed;
2 a usage error (a bad flag value, plan or scenario file, or a missing
or corrupt input file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.agt_ram import run_agt_ram
from repro.core.axioms import verify_axioms
from repro.drp.instance import DRPInstance
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.experiments.runner import PAPER_ALGORITHMS, run_algorithms
from repro.experiments.report import format_series
from repro.experiments.sweeps import capacity_sweep, rw_ratio_sweep
from repro.io import load_instance, save_instance, save_result
from repro.obs.report import BENCH_SCALE_CONFIGS
from repro.runtime.adversary import BEHAVIORS
from repro.serving.streams import SERVE_WORKLOADS
from repro.utils.ascii_chart import ascii_chart
from repro.utils.tables import render_table


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", help="load a saved instance (.npz) instead of generating")
    p.add_argument("--servers", type=int, default=40, help="M (default 40)")
    p.add_argument("--objects", type=int, default=160, help="N (default 160)")
    p.add_argument("--requests", type=int, default=30_000)
    p.add_argument("--rw-ratio", type=float, default=0.9, dest="rw_ratio")
    p.add_argument(
        "--capacity", type=float, default=0.3, help="C%% as a fraction (default 0.3)"
    )
    p.add_argument(
        "--topology",
        default="random",
        choices=["random", "waxman", "powerlaw", "transit-stub"],
    )
    p.add_argument("--seed", type=int, default=0)


def _instance_from_args(args: argparse.Namespace) -> DRPInstance:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    return paper_instance(_cfg_from_args(args, name="cli"))


def _cfg_from_args(
    args: argparse.Namespace, name: str = "cli-sweep"
) -> ExperimentConfig:
    return ExperimentConfig(
        n_servers=args.servers,
        n_objects=args.objects,
        total_requests=args.requests,
        rw_ratio=args.rw_ratio,
        capacity_fraction=args.capacity,
        topology=args.topology,
        topology_params={} if args.topology != "random" else {"p": 0.4},
        seed=args.seed,
        name=name,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    path = save_instance(instance, args.output)
    print(f"wrote {instance} -> {path}")
    return 0


def _add_export_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--events", help="write the JSONL event log to this path"
    )
    p.add_argument(
        "--events-rotate-mb",
        dest="events_rotate_mb",
        type=float,
        metavar="MB",
        help="rotate the --events log into .partNNNNN chunk files of "
        "about this many megabytes each",
    )
    p.add_argument(
        "--events-binary",
        dest="events_binary",
        help="also write the compact binary event log (REVB) to this path",
    )
    p.add_argument(
        "--chrome-trace",
        dest="chrome_trace",
        help="write a Chrome trace-event JSON (Perfetto) to this path",
    )
    p.add_argument(
        "--metrics-out",
        dest="metrics_out",
        help="write an OpenMetrics/Prometheus textfile snapshot to this path",
    )


#: Campaign artifact arguments `_apply_out_dir` relocates.
_ARTIFACT_ATTRS = (
    "events",
    "events_binary",
    "chrome_trace",
    "metrics_out",
    "report",
    "fault_log",
    "plan_out",
)


def _campaign_parser(
    sub, name: str, func, help: str, *, instance: bool = True
) -> argparse.ArgumentParser:
    """A campaign subcommand with the flags every campaign shares: the
    instance knobs, ``--report``, ``--out-dir`` and the event exports."""
    p = sub.add_parser(name, help=help)
    if instance:
        _add_instance_args(p)
    p.add_argument("--report", help=f"write the {name} report JSON here")
    p.add_argument(
        "--out-dir",
        dest="out_dir",
        default="out",
        help="directory campaign artifacts (--report, --events, …) are "
        "written under; created if missing, relative artifact paths are "
        "prefixed with it (default: out)",
    )
    _add_export_args(p)
    p.set_defaults(func=func)
    return p


def _apply_out_dir(args: argparse.Namespace) -> None:
    """Route the campaign's relative artifact paths under ``--out-dir``.

    Absolute paths are honoured as given; the directory is only created
    when some artifact will actually land in it, so a dry campaign run
    leaves the tree untouched.
    """
    from pathlib import Path

    out_dir = getattr(args, "out_dir", None)
    if not out_dir or out_dir == ".":
        return
    base = Path(out_dir)
    used = False
    for attr in _ARTIFACT_ATTRS:
        value = getattr(args, attr, None)
        if value and not Path(value).is_absolute():
            setattr(args, attr, str(base / value))
            used = True
    if used:
        base.mkdir(parents=True, exist_ok=True)


def _wants_events(args: argparse.Namespace) -> bool:
    return bool(args.events or args.chrome_trace or args.events_binary)


def _write_event_exports(args: argparse.Namespace, sink) -> None:
    """Write the requested --events/--chrome-trace files from a sink."""
    from repro.obs.export import (
        RotatingJsonlWriter,
        write_chrome_trace,
        write_events_binary,
        write_events_jsonl,
    )

    def lazy_events():
        # Block-aware sinks expand lazily; plain sinks hand over the list.
        return sink.iter_events() if hasattr(sink, "iter_events") else sink.events

    if args.events:
        if args.events_rotate_mb:
            with RotatingJsonlWriter(
                args.events, max_bytes=int(args.events_rotate_mb * 1_000_000)
            ) as writer:
                writer.write_all(lazy_events())
            print(
                f"wrote event log -> {writer.paths[0]} … "
                f"({len(writer.paths)} chunk(s), {writer.events_written} events)"
            )
        else:
            path = write_events_jsonl(lazy_events(), args.events)
            print(f"wrote event log -> {path} ({len(sink)} events)")
    if args.events_binary:
        path = write_events_binary(lazy_events(), args.events_binary)
        print(f"wrote binary event log -> {path} ({len(sink)} events)")
    if args.chrome_trace:
        path = write_chrome_trace(sink.events, args.chrome_trace)
        print(f"wrote Chrome trace -> {path}")


def _campaign_instance_meta(
    instance: DRPInstance, args: argparse.Namespace
) -> dict:
    """The instance block every campaign report JSON carries."""
    return {
        "name": instance.name,
        "n_servers": instance.n_servers,
        "n_objects": instance.n_objects,
        "seed": args.seed,
    }


def _baseline(instance: DRPInstance) -> dict:
    """The plane-free flat protocol run a campaign measures against."""
    from repro.runtime.simulator import SemiDistributedSimulator

    result = SemiDistributedSimulator().run(instance)
    log = result.extra["metrics"].log
    return {
        "otc": result.otc,
        "rounds": result.rounds,
        "messages": log.total_messages(),
        "bytes": log.bytes_total,
    }


def _title(what: str, instance: DRPInstance, detail: str) -> str:
    """``<what> on <instance> (M=…, N=…, <detail>)``."""
    return (
        f"{what} on {instance.name} (M={instance.n_servers}, "
        f"N={instance.n_objects}, {detail})"
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("inf")


_RUN_COLUMNS = [
    "run", "planes", "OTC", "degradation", "rounds", "msgs",
    "availability", "p99", "recall", "false-q", "degraded", "verdict",
]


def _run_row(label: str, record: dict) -> list:
    """One campaign table row from a run record (see
    :func:`repro.runtime.scenario.execute`)."""
    if "error" in record:
        return [label] + ["-"] * (len(_RUN_COLUMNS) - 2) + ["ERROR"]
    planes = record["planes"]
    tags = "+".join(
        tag for tag, on in (
            ("faults", planes["faults"] or planes["serving_faults"]),
            ("adv", planes["adversary"]),
            ("part", planes["partition"]),
        ) if on
    ) or "none"
    degradation = record.get("otc_degradation")
    serving = record["serving"]
    return [
        label,
        tags,
        f"{record['placement']['otc']:,.0f}",
        "-" if degradation is None else f"x{degradation:.4f}",
        record["placement"]["rounds"],
        record["placement"]["messages"],
        "-" if serving is None else f"{serving['availability']:.4f}",
        "-" if serving is None else f"{serving['p99']:.1f}",
        f"{record['detection']['recall']:.3f}" if planes["adversary"] else "-",
        len(record["detection"]["false_quarantines"]),
        f"{record['recovery']['degraded_agent_fraction']:.3f}",
        "PASS" if record["ok"] else "FAIL",
    ]


def _finish_campaign(
    args: argparse.Namespace,
    kind: str,
    title: str,
    report: dict,
    runs: Sequence[tuple],
    *,
    failures: Sequence[str] = (),
    notes: Sequence[str] = (),
) -> int:
    """Shared tail of every campaign command.

    ``runs`` are ``(label, outcome)`` pairs: a
    :class:`~repro.runtime.scenario.ScenarioOutcome`, or a bare record
    for a run that aborted.  Prints one table row per run, the
    ``notes``, one ``FAIL:`` line per gate violation (each run's,
    prefixed by its label, then the campaign-level ``failures``) and
    the verdict; writes the ``--report`` JSON (the ``report`` header,
    the run records, ``failures`` / ``ok``), exports the last run's
    event stream, and maps failures onto the exit status.
    """
    import json
    from pathlib import Path

    records = [(label, getattr(run, "report", run)) for label, run in runs]
    failures = [
        f"{label}: {line}" for label, record in records
        for line in record["failures"]
    ] + list(failures)
    print(
        render_table(
            _RUN_COLUMNS,
            [_run_row(label, record) for label, record in records],
            title=title,
        )
    )
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    print(f"verdict: {'PASS' if not failures else 'FAIL'}")
    report = {
        "kind": f"repro-{kind}",
        **report,
        "runs": [record for _, record in records],
        "failures": failures,
        "ok": not failures,
    }
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {kind} report -> {args.report}")
    sinks = [run.monitor for _, run in runs if hasattr(run, "monitor")]
    if sinks:
        _write_event_exports(args, sinks[-1])
    return 1 if failures else 0


def cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.obs import events as obs_events
    from repro.obs import tracer as obs_tracer

    instance = _instance_from_args(args)
    sink = obs_events.ColumnarSink()
    with ExitStack() as stack:
        if _wants_events(args):
            stack.enter_context(obs_events.capture(sink))
        tracer = (
            stack.enter_context(obs_tracer.capture())
            if args.metrics_out
            else None
        )
        results = run_algorithms(instance, [args.algorithm], seed=args.seed)
    res = results[args.algorithm]
    engine_note = (
        f"  engine {res.extra['engine']}" if "engine" in res.extra else ""
    )
    print(
        f"{res.algorithm}: OTC {res.otc:,.0f}  savings {res.savings_percent:.2f}%  "
        f"replicas {res.replicas_allocated}  runtime {res.runtime_s * 1e3:.1f} ms"
        f"{engine_note}"
    )
    _write_event_exports(args, sink)
    if args.metrics_out and tracer is not None:
        from pathlib import Path

        from repro.obs.export import openmetrics_from_snapshot

        text = openmetrics_from_snapshot(
            tracer.snapshot(), labels={"algorithm": args.algorithm}
        )
        Path(args.metrics_out).write_text(text)
        print(f"wrote OpenMetrics snapshot -> {args.metrics_out}")
    if args.output:
        path = save_result(res, args.output)
        print(f"wrote result -> {path}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    algorithms = args.algorithms or list(PAPER_ALGORITHMS)
    results = run_algorithms(instance, algorithms, seed=args.seed)
    rows = [
        [a, r.savings_percent, r.runtime_s * 1e3, r.replicas_allocated]
        for a, r in results.items()
    ]
    print(
        render_table(
            ["method", "savings (%)", "runtime (ms)", "replicas"],
            rows,
            title=f"comparison on {instance.name} (M={instance.n_servers}, "
            f"N={instance.n_objects})",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _cfg_from_args(args)
    algorithms = args.algorithms or ["AGT-RAM", "Greedy"]
    if args.param == "capacity":
        rows = capacity_sweep(cfg, args.values or (0.1, 0.2, 0.3, 0.4),
                              algorithms, seed=args.seed)
        x_label = "capacity C"
    else:
        rows = rw_ratio_sweep(cfg, args.values or (0.5, 0.65, 0.8, 0.95),
                              algorithms, seed=args.seed)
        x_label = "R/W ratio"
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        series.setdefault(r.algorithm, []).append((r.sweep_value, r.savings_percent))
    print(format_series(series, x_label=x_label))
    if not args.no_chart:
        print()
        print(ascii_chart(series, y_label="OTC savings (%)", x_label=x_label))
    if args.csv:
        from repro.experiments.export import sweep_to_csv

        path = sweep_to_csv(rows, args.csv)
        print(f"\nwrote raw rows -> {path}")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate the paper's figures/tables at a chosen scale."""
    from repro.experiments.figures import figure3_capacity_sweep, figure4_rw_sweep
    from repro.experiments.report import format_table_rows
    from repro.experiments.tables import table1_running_time, table2_quality
    from repro.experiments.config import SCALES

    base = SCALES[args.scale]
    grids = {
        "tiny": [(10, 40), (10, 60), (14, 40), (14, 60)],
        "small": [(30, 150), (30, 250), (50, 150), (50, 250)],
        "medium": [(60, 300), (60, 500), (100, 300), (100, 500)],
    }
    specs = {
        "tiny": [(10, 40, 0.2, 0.9), (12, 50, 0.3, 0.8), (14, 60, 0.25, 0.95)],
        "small": [(20, 90, 0.2, 0.9), (30, 150, 0.3, 0.8), (40, 220, 0.25, 0.95)],
        "medium": [(40, 180, 0.2, 0.9), (60, 280, 0.3, 0.8), (90, 580, 0.25, 0.95)],
    }
    targets = args.targets or ["fig3", "fig4", "table1", "table2"]
    if "fig3" in targets:
        series = figure3_capacity_sweep(base=base, seed=args.seed)
        print(format_series(series, x_label="capacity C",
                            title="Figure 3 — OTC savings (%) vs capacity"))
        print()
    if "fig4" in targets:
        series = figure4_rw_sweep(base=base, seed=args.seed)
        print(format_series(series, x_label="R/W ratio",
                            title="Figure 4 — OTC savings (%) vs R/W ratio"))
        print()
    if "table1" in targets:
        rows = table1_running_time(base, grid=grids[args.scale], seed=args.seed)
        print(format_table_rows(rows, metric_label="Table 1 — running time (s)"))
        print()
    if "table2" in targets:
        rows = table2_quality(base, specs=specs[args.scale], seed=args.seed)
        print(format_table_rows(rows, metric_label="Table 2 — OTC savings (%)"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf harness, or diff two of its JSON documents."""
    from repro.obs.report import (
        compare_documents,
        default_output_name,
        format_comparison,
        load_document,
        run_bench,
        write_document,
    )

    if args.compare:
        old = load_document(args.compare[0])
        new = load_document(args.compare[1])
        cmp = compare_documents(
            old,
            new,
            time_tolerance=args.tolerance,
            quality_tolerance=args.quality_tolerance,
        )
        print(format_comparison(cmp))
        if cmp["regressions"]:
            if args.fail_on_regression:
                return 1
            print("(regressions are warn-only; pass --fail-on-regression to gate)")
        return 0

    from repro.obs import events as obs_events

    sink = obs_events.ColumnarSink()
    doc = run_bench(
        scale=args.scale,
        algorithms=args.algorithms,
        seed=args.seed,
        repeats=args.repeats,
        include_protocol=not args.no_protocol,
        event_sink=sink,
        include_engine_compare=not args.no_engine_compare,
    )
    rows = [
        [
            f"{r['scenario']}/{r['algorithm']}",
            r["wall_s"] * 1e3,
            r.get("savings_percent", 0.0),
            r.get("rounds", 0),
        ]
        for r in doc["results"]
    ]
    print(
        render_table(
            ["scenario", "wall (ms)", "savings (%)", "rounds"],
            rows,
            title=f"bench @ {doc['scale']} "
            f"(M={doc['config']['n_servers']}, N={doc['config']['n_objects']}, "
            f"best of {doc['repeats']})",
        )
    )
    for r in doc["results"]:
        if r["scenario"] == "engine_compare":
            verdict = "identical" if r["identical"] else "MISMATCH"
            print(
                f"engine compare: reference oracle "
                f"{r['naive_wall_s'] * 1e3:.2f} ms vs "
                f"production {r['wall_s'] * 1e3:.2f} ms "
                f"({r['speedup']:.2f}x, {verdict})"
            )
    path = write_document(doc, args.out or default_output_name())
    print(f"wrote bench document -> {path}")
    _write_event_exports(args, sink)
    if args.metrics_out:
        from pathlib import Path

        from repro.obs.export import openmetrics_from_bench

        Path(args.metrics_out).write_text(openmetrics_from_bench(doc))
        print(f"wrote OpenMetrics snapshot -> {args.metrics_out}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Offline verification of a recorded event log (Axioms 4/5), or —
    with ``--compare-engines`` — a live production-vs-reference-oracle
    equivalence proof on a bench preset.

    The compare mode runs production AGT-RAM and the reference oracle
    once each under logical event time, diffs winners / payments /
    placements / the full event stream, re-audits both logs, and times
    both uninstrumented.  Exit status is non-zero on any divergence, an
    audit violation, or a speedup below ``--min-speedup``.
    """
    if args.compare_engines:
        from repro.obs.equivalence import compare_engines_at_scale, format_comparison

        repeats = args.repeats if args.repeats is not None else 3
        cmp = compare_engines_at_scale(args.scale, repeats=repeats)
        # The identity verdict is deterministic; the speedup is a wall
        # measurement on possibly-noisy shared hardware, so before
        # failing the gate on it alone, re-measure and keep the best
        # attempt.  A genuinely slow production path fails every attempt.
        attempt = 0
        while (
            cmp.identical
            and cmp.audit_ok
            and args.min_speedup > 0
            and cmp.speedup < args.min_speedup
            and attempt < args.retries
        ):
            attempt += 1
            print(
                f"speedup {cmp.speedup:.2f}x below {args.min_speedup:.2f}x; "
                f"re-measuring (attempt {attempt}/{args.retries})",
                file=sys.stderr,
            )
            retry = compare_engines_at_scale(args.scale, repeats=repeats)
            if retry.speedup > cmp.speedup:
                cmp = retry
        print(format_comparison(cmp))
        failed = not (cmp.identical and cmp.audit_ok)
        if args.min_speedup > 0 and cmp.speedup < args.min_speedup:
            print(
                f"FAIL: speedup {cmp.speedup:.2f}x below required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            failed = True
        return 1 if failed else 0

    if args.emission_gate:
        from repro.obs.overhead import (
            default_overhead_budget,
            format_eventing_overhead,
            measure_eventing_overhead,
        )

        budget = (
            args.max_overhead
            if args.max_overhead is not None
            else default_overhead_budget(args.scale)
        )
        pairs = {} if args.repeats is None else {"repeats": args.repeats}
        cmp = measure_eventing_overhead(args.scale, **pairs)
        # The overhead is a timing measurement on possibly-noisy shared
        # hardware, so before failing the gate, re-measure and keep the
        # attempt with the lowest upper bound.  A genuinely slow
        # emission path fails every attempt.
        attempt = 0
        while not cmp.within(budget) and attempt < args.retries:
            attempt += 1
            print(
                f"overhead CI upper bound {cmp.overhead.hi:.2f}% above "
                f"{budget:.2f}%; re-measuring "
                f"(attempt {attempt}/{args.retries})",
                file=sys.stderr,
            )
            retry = measure_eventing_overhead(args.scale, **pairs)
            if retry.overhead.hi < cmp.overhead.hi:
                cmp = retry
        print(format_eventing_overhead(cmp))
        if not cmp.within(budget):
            print(
                f"FAIL: eventing overhead CI upper bound "
                f"{cmp.overhead.hi:.2f}% above budget {budget:.2f}%",
                file=sys.stderr,
            )
            return 1
        return 0

    if not args.log:
        print(
            "error: provide an event log, --compare-engines, or "
            "--emission-gate",
            file=sys.stderr,
        )
        return 2
    if args.sharded:
        from repro.obs.audit import audit_sharded_files

        try:
            report = audit_sharded_files(args.log)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.summary())
        return 0 if report.ok else 1
    from repro.obs.audit import audit_files

    window = args.window if args.window else (64 if args.stream else 0)

    def progress(rounds_done: int, running) -> None:
        if args.stream:
            status = (
                "ok"
                if running.ok
                else f"{len(running.violations)} violation(s)"
            )
            print(f"  … {rounds_done} rounds audited, {status}")

    try:
        report = audit_files(args.log, window=window, on_window=progress)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Fault-injection campaign: the flat protocol under a seeded fault
    plan (crashes, stragglers, central crashes, a lossy channel with a
    bid quorum), gated on OTC degradation against the fault-free run;
    ``--fault-log`` also writes the plan and its injection summary."""
    import json
    from pathlib import Path

    from repro.runtime.faults import ChannelConfig, FaultPlan, FaultSchedule, QuorumPolicy
    from repro.runtime.scenario import MaterializedScenario, execute

    _apply_out_dir(args)
    instance = _instance_from_args(args)
    schedule = FaultSchedule.random(
        n_agents=instance.n_servers, horizon=args.horizon,
        seed=args.fault_seed, crash_rate=args.crash_rate,
        mean_outage=args.mean_outage, straggler_rate=args.straggler_rate,
        central_crash_rate=args.central_crash_rate,
        central_crashes=tuple(args.central_crash_round or ()),
    )
    plan = FaultPlan(
        schedule=schedule,
        channel=ChannelConfig(
            drop=args.drop, delay=args.delay, duplicate=args.duplicate
        ),
        quorum=QuorumPolicy(
            quorum=args.quorum, max_retries=args.max_retries,
            max_stalled_rounds=args.max_stalled_rounds,
        ),
        checkpoint_period=args.checkpoint_period,
        seed=args.fault_seed,
    )
    baseline = _baseline(instance)
    run = execute(
        MaterializedScenario(instance, fault_plan=plan),
        baseline_otc=baseline["otc"], max_degradation=args.max_degradation,
    )
    if args.fault_log:
        summary = run.report["fault_summary"]
        Path(args.fault_log).write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote fault summary -> {args.fault_log}")
    return _finish_campaign(
        args, "chaos",
        _title("chaos campaign", instance, f"fault seed {args.fault_seed}, "
               f"fault-free OTC {baseline['otc']:,.0f}"),
        {"instance": _campaign_instance_meta(instance, args),
         "fault_seed": args.fault_seed, "baseline": baseline,
         "gates": {"max_degradation": args.max_degradation}},
        [("chaos", run)],
    )


def cmd_adversary(args: argparse.Namespace) -> int:
    """Byzantine campaign: one run per ``--fraction`` of seeded
    misbehaving agents against the validator, detector and quarantine,
    gated on detection recall, zero false quarantines and OTC
    degradation against the honest run."""
    from repro.runtime.adversary import AdversaryPlan, QuarantinePolicy
    from repro.runtime.scenario import MaterializedScenario, execute

    _apply_out_dir(args)
    instance = _instance_from_args(args)
    policy = QuarantinePolicy(
        strikes=args.strikes, probation=args.probation,
        max_quarantines=args.max_quarantines,
    )
    plans = [
        (fraction, AdversaryPlan.random(
            n_agents=instance.n_servers, fraction=fraction,
            behaviors=tuple(args.behaviors or BEHAVIORS),
            factor=args.factor, activity=args.activity, seed=args.adv_seed,
        ))
        for fraction in args.fraction or [0.25]
    ]
    baseline = _baseline(instance)
    runs = []
    for fraction, plan in plans:
        run = execute(
            MaterializedScenario(instance, adversary=plan, quarantine=policy),
            baseline_otc=baseline["otc"], min_recall=args.min_recall,
            no_false_quarantines=True, max_degradation=args.max_degradation,
        )
        run.report = {"fraction": fraction, **run.report}
        runs.append((f"{fraction:.2f}", run))
    return _finish_campaign(
        args, "adversary",
        _title("adversary campaign", instance, f"honest OTC "
               f"{baseline['otc']:,.0f}, adv seed {args.adv_seed}"),
        {"instance": _campaign_instance_meta(instance, args),
         "adv_seed": args.adv_seed,
         "quarantine_policy": policy.to_dict(), "baseline": baseline,
         "gates": {"min_recall": args.min_recall,
                   "max_degradation": args.max_degradation}},
        runs,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Serving campaign: auction a placement for the workload's demand,
    then stream its requests against it under an optional serving fault
    schedule (failover, hedged reads, shedding, drift re-auctions),
    gated on availability and p99 latency."""
    from repro.runtime.faults import FaultSchedule
    from repro.runtime.scenario import (
        MaterializedScenario,
        execute,
        serving_traffic,
    )
    from repro.serving import ServeConfig

    _apply_out_dir(args)
    base = _instance_from_args(args)
    config = ServeConfig(
        timeout=args.timeout,
        max_attempts=args.max_attempts,
        hedge_quantile=args.hedge_quantile,
        hedge_enabled=not args.no_hedge,
        rate=args.rate,
        burst=args.burst,
        requests_per_round=args.requests_per_round,
        drift_window=args.drift_window,
        drift_threshold=args.drift_threshold,
        drift_top_k=args.drift_top_k,
        max_reauctions=args.max_reauctions,
    )
    instance, traffic, horizon = serving_traffic(
        base, args.workload, args.serve_requests, seed=args.serve_seed,
        config=config,
    )
    faults = None
    if args.crash_rate > 0 or args.straggler_rate > 0:
        faults = FaultSchedule.random(
            n_agents=base.n_servers, horizon=horizon, seed=args.fault_seed,
            crash_rate=args.crash_rate, mean_outage=args.mean_outage,
            straggler_rate=args.straggler_rate,
        )
    run = execute(
        MaterializedScenario(
            instance, traffic, serving_faults=faults,
            serve_seed=args.serve_seed, serve_config=config,
            n_requests=args.serve_requests,
        ),
        min_availability=args.min_availability, max_p99=args.max_p99,
    )
    return _finish_campaign(
        args, "serve",
        _title(f"serving campaign: {args.workload}", instance,
               f"serve seed {args.serve_seed}, fault seed {args.fault_seed}"),
        {"instance": _campaign_instance_meta(base, args),
         "workload": args.workload, "serve_seed": args.serve_seed,
         "fault_seed": args.fault_seed,
         "gates": {"min_availability": args.min_availability,
                   "max_p99": args.max_p99}},
        [(args.workload, run)],
    )


def cmd_shard(args: argparse.Namespace) -> int:
    """Partition-tolerance campaign for the sharded central: the healthy
    k-region run's message reduction against the single central, then
    one run per swept partition fraction (seeded schedules with
    regional-central crashes) or exactly the ``--plan`` schedule, gated
    on OTC degradation against the single central.  ``--check-null``
    also requires the null schedule's event stream to equal the
    unpartitioned run's.  A bad ``--plan`` file exits 2 before any run.
    """
    import json
    from pathlib import Path

    from repro.errors import ConfigurationError, decoding
    from repro.runtime.scenario import MaterializedScenario, execute
    from repro.runtime.shard import PartitionSchedule

    loaded = None
    if args.plan:
        with decoding(args.plan):
            loaded = PartitionSchedule.from_dict(
                json.loads(Path(args.plan).read_text())
            )
        if loaded.n_regions != args.regions:
            raise ConfigurationError(
                f"--plan {args.plan} covers {loaded.n_regions} regions, "
                f"--regions is {args.regions}"
            )
    _apply_out_dir(args)
    if args.scale:
        instance = paper_instance(BENCH_SCALE_CONFIGS[args.scale])
    else:
        instance = _instance_from_args(args)
    baseline = _baseline(instance)

    def sharded(plan, **bounds):
        mat = MaterializedScenario(
            instance, partition=plan, regions=args.regions,
            shard_seed=args.shard_seed,
        )
        return execute(mat, baseline_otc=baseline["otc"], **bounds)

    # The healthy run is the horizon for random schedules and carries the
    # headline reduction (partitioned runs add heal resyncs and election
    # storms on top; the reduction is a property of the healthy protocol).
    healthy_run = sharded(None)
    healthy = {k: healthy_run.report["placement"][k] for k in baseline}
    reduction = _ratio(baseline["messages"], healthy["messages"])
    byte_reduction = _ratio(baseline["bytes"], healthy["bytes"])
    failures = []
    if (
        args.min_message_reduction is not None
        and reduction < args.min_message_reduction
    ):
        failures.append(
            f"message reduction x{reduction:.2f} below required "
            f"x{args.min_message_reduction:.2f}"
        )
    if args.check_null:
        null_run = sharded(PartitionSchedule.null(args.regions))
        null_msgs = null_run.report["placement"]["messages"]
        if null_msgs != healthy["messages"] or [
            e.to_dict() for e in null_run.events
        ] != [e.to_dict() for e in healthy_run.events]:
            failures.append(
                "null partition schedule diverges from the unpartitioned "
                f"run ({len(null_run.events)} vs {len(healthy_run.events)} "
                f"events, {null_msgs} vs {healthy['messages']} messages)"
            )

    horizon = args.horizon or max(1, healthy["rounds"])
    sweeps = [(None, loaded)] if loaded is not None else [
        (fraction, PartitionSchedule.random(
            n_regions=args.regions, horizon=horizon,
            seed=args.partition_seed, partition_fraction=fraction,
            mean_width=args.mean_width, n_islands=args.islands,
            crash_rate=args.crash_rate,
        ))
        for fraction in args.fraction or [0.0, 0.25, 0.5]
    ]
    runs = []
    for fraction, plan in sweeps:
        run = sharded(plan, max_degradation=args.max_degradation)
        messages = run.report["placement"]["messages"]
        run.report = {
            "fraction": fraction, **run.report,
            "message_reduction": _ratio(baseline["messages"], messages),
        }
        runs.append(("file" if fraction is None else f"{fraction:.2f}", run))
    if args.plan_out:
        plans = {
            ("file" if f is None else f"{f:g}"): p.to_dict()
            for f, p in sweeps
        }
        Path(args.plan_out).write_text(json.dumps(plans, indent=2) + "\n")
        print(f"wrote partition schedule(s) -> {args.plan_out}")
    return _finish_campaign(
        args, "shard",
        _title("shard campaign", instance, f"k={args.regions}, shard seed "
               f"{args.shard_seed}, partition seed {args.partition_seed}"),
        {"instance": _campaign_instance_meta(instance, args),
         "scale": args.scale, "regions": args.regions,
         "shard_seed": args.shard_seed,
         "partition_seed": args.partition_seed,
         "baseline": baseline, "healthy": healthy,
         "message_reduction": reduction, "byte_reduction": byte_reduction,
         "gates": {"max_degradation": args.max_degradation,
                   "min_message_reduction": args.min_message_reduction,
                   "check_null": bool(args.check_null)}},
        runs,
        failures=failures,
        notes=[
            f"single central: {baseline['messages']} messages / "
            f"{baseline['bytes']} bytes in {baseline['rounds']} rounds",
            f"sharded (healthy): {healthy['messages']} messages / "
            f"{healthy['bytes']} bytes in {healthy['rounds']} rounds "
            f"(reduction x{reduction:.2f} msgs, x{byte_reduction:.2f} "
            "bytes)",
        ],
    )


def _load_scenario(name: str):
    """A catalog scenario by name, or a scenario JSON file by path (e.g.
    a shrunk ``<name>_scenario.json`` repro) to replay."""
    import json
    from pathlib import Path

    from repro.errors import ConfigurationError, decoding
    from repro.runtime.scenario import CATALOG, Scenario

    if name in CATALOG:
        return CATALOG[name]
    if not Path(name).is_file():
        raise ConfigurationError(
            f"unknown scenario {name!r}: not in the catalog "
            f"({', '.join(CATALOG)}) and not a scenario JSON file"
        )
    with decoding(name):
        data = json.loads(Path(name).read_text())
    return Scenario.from_dict(data)


def cmd_resilience(args: argparse.Namespace) -> int:
    """Composed failure-plane campaign: each ``--scenario`` (a catalog
    name or a scenario JSON file; default the whole catalog) plus
    ``--lottery`` random compositions, each gated on its own bounds.  A
    failing scenario is greedily shrunk (drop planes, halve the
    workload, bisect the horizon) to a minimal still-failing
    ``<name>_scenario.json`` unless ``--no-shrink``."""
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.runtime.scenario import (
        CATALOG,
        Scenario,
        run_scenario,
        scenario_fails,
        shrink_scenario,
    )

    _apply_out_dir(args)
    scenarios = [_load_scenario(name) for name in args.scenario or ()]
    scenarios = scenarios or list(CATALOG.values())
    scenarios += [
        Scenario.random(args.lottery_seed + i) for i in range(args.lottery)
    ]
    runs = []
    for sc in scenarios:
        try:
            run = run_scenario(sc, strict=args.strict)
            record = run.report
        except ReproError as exc:
            run = record = {
                "scenario": sc.to_dict(), "error": str(exc),
                "failures": [f"aborted: {exc}"], "ok": False,
            }
        runs.append((sc.name, run))
        if not record["ok"] and not args.no_shrink:
            mini, probes = shrink_scenario(sc, scenario_fails)
            path = Path(args.out_dir or ".") / f"{sc.name}_scenario.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(mini.to_dict(), indent=2) + "\n")
            print(
                f"shrunk {sc.name} to a minimal failing scenario "
                f"({probes} probes) -> {path}"
            )
            record["shrunk_scenario"] = mini.to_dict()
    return _finish_campaign(
        args, "resilience",
        f"resilience campaign ({len(scenarios)} scenario(s), "
        f"{len(CATALOG)} in catalog)",
        {"catalog": sorted(CATALOG), "lottery": args.lottery,
         "lottery_seed": args.lottery_seed, "strict": bool(args.strict)},
        runs,
    )


def cmd_axioms(args: argparse.Namespace) -> int:
    instance = _instance_from_args(args)
    result = run_agt_ram(instance, record_audit=True)
    checks = verify_axioms(instance, result)
    failed = 0
    for name, check in checks.items():
        status = "PASS" if check.passed else "FAIL"
        failed += not check.passed
        print(f"{name:28s} {status}  {check.detail}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AGT-RAM replica placement (Khan & Ahmad, IPPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build and save a DRP instance")
    _add_instance_args(p)
    p.add_argument("--output", "-o", required=True, help="output .npz path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="run one algorithm")
    _add_instance_args(p)
    p.add_argument(
        "--algorithm", "-a", default="AGT-RAM",
        choices=list(PAPER_ALGORITHMS) + ["Random"],
    )
    p.add_argument("--output", "-o", help="save scheme + summary")
    _add_export_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several algorithms")
    _add_instance_args(p)
    p.add_argument("--algorithms", nargs="+", choices=list(PAPER_ALGORITHMS) + ["Random"])
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="capacity or R/W sweep")
    _add_instance_args(p)
    p.add_argument("--param", choices=["capacity", "rw"], default="capacity")
    p.add_argument("--values", nargs="+", type=float)
    p.add_argument("--algorithms", nargs="+", choices=list(PAPER_ALGORITHMS))
    p.add_argument("--no-chart", action="store_true")
    p.add_argument("--csv", help="also write the raw rows to this CSV path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("axioms", help="verify the six axioms on a run")
    _add_instance_args(p)
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser(
        "bench",
        help="run the perf harness / compare two bench JSON documents",
    )
    p.add_argument(
        "--out", "-o", help="output JSON path (default BENCH_<date>.json)"
    )
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        help="instance preset (default: $REPRO_BENCH_SCALE or 'small')",
    )
    p.add_argument(
        "--algorithms", nargs="+", help="placement algorithms to record"
    )
    p.add_argument(
        "--no-engine-compare",
        action="store_true",
        dest="no_engine_compare",
        help="skip the production-vs-reference-oracle engine_compare record",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--repeats", type=int, default=3, help="runs per scenario (wall = best)"
    )
    p.add_argument(
        "--no-protocol",
        action="store_true",
        help="skip the message-level protocol scenario",
    )
    p.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="diff two bench documents instead of running",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="wall-time regression tolerance as a fraction (default 0.15)",
    )
    p.add_argument(
        "--quality-tolerance",
        type=float,
        default=1.0,
        help="OTC-savings regression tolerance in points (default 1.0)",
    )
    p.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit 1 when --compare finds regressions (default: warn only)",
    )
    _add_export_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "audit",
        help="verify a recorded event log offline (winner/payment/capacity), "
        "or prove production AGT-RAM equals the reference oracle",
    )
    p.add_argument(
        "log",
        nargs="*",
        help="event log(s) written by --events / --events-binary; a "
        "rotated log's logical name resolves to its .partNNNNN chunks, "
        "and multiple paths chain into one audited stream",
    )
    p.add_argument(
        "--window",
        type=int,
        default=0,
        help="audit in windows of N rounds (bounded memory over lazy "
        "decoding; verdicts are identical to a whole-log audit)",
    )
    p.add_argument(
        "--stream",
        action="store_true",
        help="print a progress line per audited window (implies "
        "--window 64 unless set)",
    )
    p.add_argument(
        "--sharded",
        action="store_true",
        help="audit a sharded-central log: per-shard mechanism audits "
        "from the region tags plus the cross-shard reconciliation pass",
    )
    p.add_argument(
        "--emission-gate",
        action="store_true",
        dest="emission_gate",
        help="measure AGT-RAM's eventing-on overhead on a bench preset "
        "(paired runs, bootstrap CI)",
    )
    p.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        dest="max_overhead",
        help="fail --emission-gate if the overhead CI's upper bound "
        "exceeds this percent (default: the per-scale budget, 8%% at "
        "large)",
    )
    p.add_argument(
        "--compare-engines",
        action="store_true",
        dest="compare_engines",
        help="run production AGT-RAM and the reference oracle on a bench "
        "preset and verify bit-for-bit identical winners, payments, and "
        "events",
    )
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        default="tiny",
        help="bench preset for --compare-engines (default tiny)",
    )
    p.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing runs: per side for --compare-engines (wall = best; "
        "default 3), off/on pairs for --emission-gate (default 30)",
    )
    p.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        dest="min_speedup",
        help="fail unless production is at least this many times faster "
        "than the reference oracle "
        "(default 0 = identity check only)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        help="re-measurements before failing a timing gate on a noisy "
        "machine (default 2; identity mismatches never retry)",
    )
    p.set_defaults(func=cmd_audit)

    p = _campaign_parser(
        sub, "chaos", cmd_chaos,
        "seeded fault-injection campaign vs a fault-free baseline",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for the fault schedule and the lossy channel",
    )
    p.add_argument(
        "--horizon", type=int, default=200,
        help="protocol rounds covered by the random schedule (default 200)",
    )
    p.add_argument("--drop", type=float, default=0.1,
                   help="per-transmission drop probability (default 0.1)")
    p.add_argument("--delay", type=float, default=0.05,
                   help="past-deadline delay probability (default 0.05)")
    p.add_argument("--duplicate", type=float, default=0.05,
                   help="duplicate-delivery probability (default 0.05)")
    p.add_argument("--crash-rate", type=float, default=0.02, dest="crash_rate",
                   help="per-agent per-round crash probability (default 0.02)")
    p.add_argument("--mean-outage", type=float, default=3.0, dest="mean_outage",
                   help="mean crash outage length in rounds (default 3)")
    p.add_argument("--straggler-rate", type=float, default=0.02,
                   dest="straggler_rate",
                   help="per-agent per-round straggler probability")
    p.add_argument("--central-crash-rate", type=float, default=0.0,
                   dest="central_crash_rate",
                   help="per-round central-crash probability (default 0)")
    p.add_argument("--central-crash-round", type=int, action="append",
                   dest="central_crash_round", metavar="ROUND",
                   help="crash the central at this round (repeatable)")
    p.add_argument("--quorum", type=float, default=0.5,
                   help="fraction of expected bids required to commit")
    p.add_argument("--max-retries", type=int, default=2, dest="max_retries",
                   help="bid retransmissions before the deadline (default 2)")
    p.add_argument("--max-stalled-rounds", type=int, default=200,
                   dest="max_stalled_rounds",
                   help="consecutive stalls before giving up (default 200)")
    p.add_argument("--checkpoint-period", type=int, default=8,
                   dest="checkpoint_period",
                   help="central checkpoint every K commits; 0 disables")
    p.add_argument("--max-degradation", type=float, default=None,
                   dest="max_degradation",
                   help="fail (exit 1) if chaos OTC exceeds fault-free OTC "
                   "by more than this ratio (e.g. 1.05)")
    p.add_argument("--fault-log", dest="fault_log",
                   help="write the fault-plan + injection summary JSON here")

    p = _campaign_parser(
        sub, "adversary", cmd_adversary,
        "seeded Byzantine-agent campaign vs the honest baseline",
    )
    p.add_argument(
        "--adv-seed", type=int, default=0, dest="adv_seed",
        help="seed for adversary selection and behaviour (default 0)",
    )
    p.add_argument(
        "--fraction", type=float, action="append", metavar="F",
        help="fraction of agents made Byzantine; repeat to sweep "
        "(default: one run at 0.25)",
    )
    p.add_argument(
        "--behaviors", nargs="+", choices=list(BEHAVIORS), metavar="NAME",
        help=f"restrict the behaviour mix (default: all of {', '.join(BEHAVIORS)})",
    )
    p.add_argument(
        "--factor", type=float, default=2.0,
        help="inflation/deflation factor for misreports (default 2.0)",
    )
    p.add_argument(
        "--activity", type=float, default=1.0,
        help="per-round probability an adversary misbehaves (default 1.0)",
    )
    p.add_argument(
        "--strikes", type=int, default=3,
        help="offences before quarantine (default 3)",
    )
    p.add_argument(
        "--probation", type=int, default=20,
        help="quarantine length in protocol rounds (default 20)",
    )
    p.add_argument(
        "--max-quarantines", type=int, default=3, dest="max_quarantines",
        help="quarantines before permanent expulsion (default 3)",
    )
    p.add_argument(
        "--min-recall", type=float, default=None, dest="min_recall",
        help="fail (exit 1) if the detectors flag less than this "
        "fraction of injected manipulations (e.g. 0.95)",
    )
    p.add_argument(
        "--max-degradation", type=float, default=None,
        dest="max_degradation",
        help="fail (exit 1) if adversarial OTC exceeds the honest OTC "
        "by more than this ratio (e.g. 1.10)",
    )

    p = _campaign_parser(
        sub, "serve", cmd_serve,
        "resilient online serving campaign with SLO gates",
    )
    # Serving defaults: a smoke-sized instance replicated deeply enough
    # (capacity 0.5) that failover has somewhere to go.
    p.set_defaults(servers=10, objects=30, requests=4000, capacity=0.5)
    p.add_argument(
        "--workload", default="worldcup", choices=list(SERVE_WORKLOADS),
        help="traffic family to serve (default worldcup; drift and "
        "flashcrowd move mid-campaign and exercise re-auction)",
    )
    p.add_argument(
        "--serve-requests", type=int, default=4000, dest="serve_requests",
        help="requests to stream through the serving loop (default 4000)",
    )
    p.add_argument(
        "--serve-seed", type=int, default=11, dest="serve_seed",
        help="seed for the request stream and the latency model",
    )
    p.add_argument(
        "--fault-seed", type=int, default=0, dest="fault_seed",
        help="seed for the random fault schedule (with --crash-rate etc.)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=0.0, dest="crash_rate",
        help="per-server per-round crash probability (default 0: no faults)",
    )
    p.add_argument(
        "--mean-outage", type=float, default=2.0, dest="mean_outage",
        help="mean crash outage length in serving rounds (default 2)",
    )
    p.add_argument(
        "--straggler-rate", type=float, default=0.0, dest="straggler_rate",
        help="per-server per-round straggler probability (default 0)",
    )
    p.add_argument(
        "--requests-per-round", type=int, default=500,
        dest="requests_per_round",
        help="request ticks per fault-schedule round (default 500)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="attempt deadline (default: auto from the cost diameter)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3, dest="max_attempts",
        help="attempts per request before it fails (default 3)",
    )
    p.add_argument(
        "--hedge-quantile", type=float, default=0.95, dest="hedge_quantile",
        help="hedge reads outliving this trailing quantile (default 0.95)",
    )
    p.add_argument(
        "--no-hedge", action="store_true", dest="no_hedge",
        help="disable hedged reads",
    )
    p.add_argument(
        "--rate", type=float, default=1.0,
        help="token-bucket refill per request tick (default 1.0)",
    )
    p.add_argument(
        "--burst", type=float, default=50.0,
        help="token-bucket depth (default 50)",
    )
    p.add_argument(
        "--drift-window", type=int, default=800, dest="drift_window",
        help="requests per drift-detection window (default 800)",
    )
    p.add_argument(
        "--drift-threshold", type=float, default=0.15,
        dest="drift_threshold",
        help="total-variation distance that triggers a re-auction",
    )
    p.add_argument(
        "--drift-top-k", type=int, default=8, dest="drift_top_k",
        help="objects re-auctioned per drift trigger (default 8)",
    )
    p.add_argument(
        "--max-reauctions", type=int, default=3, dest="max_reauctions",
        help="re-auction budget; 0 disables drift response (default 3)",
    )
    p.add_argument(
        "--min-availability", type=float, default=None,
        dest="min_availability",
        help="fail (exit 1) if served/admitted drops below this",
    )
    p.add_argument(
        "--max-p99", type=float, default=None, dest="max_p99",
        help="fail (exit 1) if p99 latency exceeds this",
    )

    p = _campaign_parser(
        sub, "shard", cmd_shard,
        "partition-tolerance campaign for the sharded central",
    )
    p.add_argument(
        "--scale",
        choices=sorted(BENCH_SCALE_CONFIGS),
        default=None,
        help="run on a bench preset instead of the instance knobs",
    )
    p.add_argument(
        "--regions", type=int, default=8,
        help="regional sub-centrals k (default 8)",
    )
    p.add_argument(
        "--shard-seed", type=int, default=2007, dest="shard_seed",
        help="seed for the proximity partition of servers into regions",
    )
    p.add_argument(
        "--partition-seed", type=int, default=2007, dest="partition_seed",
        help="seed for the random partition schedule (default 2007)",
    )
    p.add_argument(
        "--fraction", type=float, action="append", metavar="F",
        help="fraction of rounds spent partitioned; repeat to sweep "
        "(default: 0.0 0.25 0.5)",
    )
    p.add_argument(
        "--islands", type=int, default=2,
        help="islands per partition window (default 2)",
    )
    p.add_argument(
        "--mean-width", type=float, default=6.0, dest="mean_width",
        help="mean partition window width in rounds (default 6)",
    )
    p.add_argument(
        "--crash-rate", type=float, default=0.0, dest="crash_rate",
        help="per-(round, region) regional-central crash probability",
    )
    p.add_argument(
        "--horizon", type=int, default=None,
        help="rounds covered by random schedules (default: the healthy "
        "sharded run's length)",
    )
    p.add_argument(
        "--plan", help="run exactly this partition schedule JSON instead "
        "of sweeping random ones",
    )
    p.add_argument(
        "--plan-out", dest="plan_out",
        help="write the swept partition schedule(s) JSON here",
    )
    p.add_argument(
        "--check-null", action="store_true", dest="check_null",
        help="verify the null schedule's event stream is byte-identical "
        "to the unpartitioned sharded run",
    )
    p.add_argument(
        "--max-degradation", type=float, default=None,
        dest="max_degradation",
        help="fail (exit 1) if any swept run's OTC exceeds the "
        "single-central OTC by more than this ratio (e.g. 1.05)",
    )
    p.add_argument(
        "--min-message-reduction", type=float, default=2.0,
        dest="min_message_reduction",
        help="fail (exit 1) if the healthy sharded run sends more than "
        "1/this of the single-central messages (default 2.0; pass 0 to "
        "disable)",
    )

    p = _campaign_parser(
        sub, "resilience", cmd_resilience,
        "composed failure-plane survivability campaign with shrinking",
        instance=False,
    )
    p.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run this catalog scenario, or replay this scenario JSON "
        "file (e.g. a shrunk <name>_scenario.json); repeatable; default: "
        "the whole catalog",
    )
    p.add_argument(
        "--lottery", type=int, default=0, metavar="N",
        help="also run N random scenario compositions (default 0)",
    )
    p.add_argument(
        "--lottery-seed", type=int, default=0, dest="lottery_seed",
        help="base seed for the lottery tickets (ticket i uses seed+i)",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="abort a scenario on the first invariant violation instead "
        "of collecting them",
    )
    p.add_argument(
        "--no-shrink", action="store_true", dest="no_shrink",
        help="skip shrinking failing scenarios to minimal repro JSONs",
    )

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's figures/tables"
    )
    p.add_argument(
        "--targets", nargs="+", choices=["fig3", "fig4", "table1", "table2"]
    )
    p.add_argument("--scale", choices=["tiny", "small", "medium"], default="tiny")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError) as exc:
        # A bad flag value, scenario or plan, or a missing or
        # undecodable input file (CorruptInputError) is a usage error,
        # not a gate failure (exit 1) or a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
