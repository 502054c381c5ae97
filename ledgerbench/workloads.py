"""The benchmark's three workloads, their inputs, passes and output checks.

Each workload fixes a reference problem: a config built with a fixed
instance seed.  The benchmark's ``--seed`` draws, for every pass, a
relabeling of that problem: a random permutation of server ids and one
of object ids.  A relabeled problem is the same problem, so rounds,
replicas and messages do not depend on the seed (tie-breaks move a few
other counts by parts in ten thousand; see README.md), and time varies
only by noise.  The program still sees different
arrays on every pass and every seed.  Seeding the generators directly
instead moves rounds and log size by about 25% from seed to seed (see
README.md), which no bound a benchmark may set could absorb.

A pass calls the program's public functions, layer by layer, through a
:class:`~ledger.Ledger`.  The relabeling and the output checks run
between those calls and are never timed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from ledger import Ledger
from repro.core.agt_ram import run_agt_ram
from repro.drp.cost import total_otc
from repro.drp.feasibility import check_state
from repro.drp.instance import DRPInstance, build_instance
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.instances import paper_instance
from repro.obs import events as ev
from repro.obs.audit import audit_events, audit_file, audit_serving_events
from repro.obs.export import write_events_jsonl
from repro.runtime.faults import FaultSchedule
from repro.runtime.simulator import SemiDistributedSimulator
from repro.serving import ServeConfig, make_traffic, serve, with_demand
from repro.serving.streams import ServeRequest, ServingTraffic
from repro.topology import make_topology
from repro.topology.costs import cost_matrix
from repro.utils.rng import spawn_children
from repro.workload.synthetic import synthesize_workload

#: End-to-end metrics every untraced run reports: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("place_s", "s"),
    ("campaign_s", "s"),
    ("otc_savings_pct", "%"),
    ("peak_rss_mb", "MB"),
)

#: End-to-end figures a workload prints by name but does not put in its
#: result line, because not every workload has them (name, unit).
WORKLOAD_ONLY = (
    ("log_audit_s", "s"),
    ("serve_rps", "1/s"),
    ("request_fail_ratio", "ratio"),
    ("serve_sim_p99", "cost"),
)

#: Per-layer metrics every traced run reports: (name, unit).  A layer a
#: workload never calls reports 0.
PER_LAYER = (
    ("topology.generate_s", "s"),
    ("topology.cost_matrix_s", "s"),
    ("workload.synthesize_s", "s"),
    ("drp.build_instance_s", "s"),
    ("drp.build_instance_self_s", "s"),
    ("core.auction_s", "s"),
    ("core.rounds", "count"),
    ("core.round_us", "us"),
    ("core.replicas", "count"),
    ("obs.events", "count"),
    ("obs.capture_bytes", "bytes"),
    ("obs.export_s", "s"),
    ("obs.export_bytes", "bytes"),
    ("obs.export_events_per_s", "1/s"),
    ("obs.audit_s", "s"),
    ("obs.audit_events_per_s", "1/s"),
    ("runtime.place_s", "s"),
    ("runtime.rounds", "count"),
    ("runtime.messages", "count"),
    ("runtime.bytes", "bytes"),
    ("serving.traffic_s", "s"),
    ("serving.serve_s", "s"),
    ("serving.rps", "1/s"),
    ("serving.request_p50_us", "us"),
    ("serving.request_p99_us", "us"),
    ("serving.attempts_per_served", "ratio"),
    ("serving.failovers", "count"),
    ("serving.timeouts", "count"),
    ("serving.hedges", "count"),
    ("serving.shed", "count"),
    ("serving.reauctions", "count"),
    ("serving.fail_ratio", "ratio"),
    ("serving.sim_p99", "cost"),
    ("serving.audit_s", "s"),
    ("topology.rss_delta_mb", "MB"),
    ("workload.rss_delta_mb", "MB"),
    ("drp.rss_delta_mb", "MB"),
    ("core.rss_delta_mb", "MB"),
    ("obs.rss_delta_mb", "MB"),
    ("runtime.rss_delta_mb", "MB"),
    ("serving.rss_delta_mb", "MB"),
    ("trace.overhead_s", "s"),
)

#: Layers whose peak-RSS growth a traced pass reports.
LAYERS = ("topology", "workload", "drp", "core", "obs", "runtime", "serving")


@dataclass
class PassResult:
    """What one pass measured and whether its outputs were correct."""

    #: End-to-end figures of this pass (``END_TO_END`` and
    #: ``WORKLOAD_ONLY`` names the workload has).
    e2e: dict[str, float]
    #: Per-layer figures of this pass (``PER_LAYER`` names it has).
    layers: dict[str, float]
    #: Outputs that a traced and an untraced pass over the same
    #: relabeling must reproduce exactly.
    fingerprint: tuple
    #: Failed output checks, as messages.
    failures: list[str] = field(default_factory=list)


# -- relabeling ---------------------------------------------------------------


@dataclass(frozen=True)
class Relabeling:
    """New server ``j`` is old server ``servers[j]``; likewise objects."""

    servers: np.ndarray
    objects: np.ndarray

    @classmethod
    def draw(cls, seed: int, index: int, m: int, n: int) -> "Relabeling":
        rng = np.random.default_rng([seed, index])
        return cls(rng.permutation(m), rng.permutation(n))

    @property
    def server_ids(self) -> np.ndarray:
        """Old server id -> new server id."""
        return np.argsort(self.servers)

    @property
    def object_ids(self) -> np.ndarray:
        """Old object id -> new object id."""
        return np.argsort(self.objects)

    def matrix(self, a: np.ndarray) -> np.ndarray:
        """A (servers, objects) matrix under the new ids."""
        return a[np.ix_(self.servers, self.objects)]

    def instance(self, inst: DRPInstance) -> DRPInstance:
        return DRPInstance(
            cost=inst.cost[np.ix_(self.servers, self.servers)],
            reads=self.matrix(inst.reads),
            writes=self.matrix(inst.writes),
            sizes=inst.sizes[self.objects],
            capacities=inst.capacities[self.servers],
            primaries=self.server_ids[inst.primaries[self.objects]],
            name=inst.name,
        )

    def requests(self, stream: Iterable[ServeRequest]) -> list[ServeRequest]:
        # The drift stream uses the origin server as the client id.
        sid = self.server_ids.tolist()
        oid = self.object_ids.tolist()
        return [
            ServeRequest(
                client=sid[r.client], server=sid[r.server], obj=oid[r.obj], kind=r.kind
            )
            for r in stream
        ]

    def faults(self, plan: FaultSchedule) -> FaultSchedule:
        sid = self.server_ids.tolist()
        return FaultSchedule(
            agent_crashes={sid[a]: iv for a, iv in plan.agent_crashes.items()},
            central_crashes=plan.central_crashes,
            stragglers={(r, sid[a]) for r, a in plan.stragglers},
        )


# -- output checks ------------------------------------------------------------


def check_placement(result) -> list[str]:
    """The scheme is feasible and its OTC is the one reported."""
    failures = []
    try:
        check_state(result.state)
    except ReproError as exc:
        failures.append(f"infeasible placement: {exc}")
    otc = total_otc(result.state)
    if otc != result.otc:
        failures.append(f"total_otc {otc!r} != reported OTC {result.otc!r}")
    return failures


def check_audit(label: str, report) -> list[str]:
    if report.ok:
        return []
    return [f"{label} failed: {len(report.violations)} violation(s)"]


# -- workloads ----------------------------------------------------------------


def _build(ledger: Ledger, cfg: ExperimentConfig, steps: dict, layers: dict):
    """Build ``cfg``'s instance; split into layer calls when traced.

    Untraced, this is one call to ``paper_instance``, the production
    path.  Traced, it repeats that function's body call by call, plus a
    separate ``cost_matrix`` call so the APSP share inside
    ``build_instance`` can be told apart; that extra call is not part
    of the pass's time.
    """
    if not ledger.traced:
        with ledger.call("experiments.paper_instance") as t:
            inst = paper_instance(cfg)
        steps["build"] = t
        return inst
    rng_topo, rng_work, rng_inst = spawn_children(cfg.seed, 3)
    with ledger.call("topology.generate") as t_topo:
        topo = make_topology(
            cfg.topology, cfg.n_servers, seed=rng_topo, **cfg.topology_params
        )
    with ledger.call("topology.cost_matrix") as t_apsp:
        cost_matrix(topo)
    with ledger.call("workload.synthesize") as t_work:
        work = synthesize_workload(
            topo.n_nodes,
            cfg.n_objects,
            total_requests=cfg.total_requests,
            rw_ratio=cfg.rw_ratio,
            popularity_alpha=cfg.popularity_alpha,
            server_skew=cfg.server_skew,
            mean_object_size=cfg.mean_object_size,
            size_cv=cfg.size_cv,
            seed=rng_work,
        )
    with ledger.call("drp.build_instance") as t_inst:
        inst = build_instance(
            topo,
            work,
            capacity_fraction=cfg.capacity_fraction,
            seed=rng_inst,
            name=cfg.name,
        )
    steps.update(topology=t_topo, workload=t_work, instance=t_inst)
    layers.update(
        {
            "topology.generate_s": t_topo.seconds,
            "topology.cost_matrix_s": t_apsp.seconds,
            "workload.synthesize_s": t_work.seconds,
            "drp.build_instance_s": t_inst.seconds,
            "drp.build_instance_self_s": t_inst.seconds - t_apsp.seconds,
        }
    )
    return inst


def _auction_layers(result, seconds: float) -> dict[str, float]:
    return {
        "core.auction_s": seconds,
        "core.rounds": result.rounds,
        "core.round_us": seconds / max(1, result.rounds) * 1e6,
        "core.replicas": result.state.n_replicas_added,
    }


def _summed(steps: dict) -> float:
    return sum(t.outer_seconds for t in steps.values())


def placement_pass(
    ctx: dict, ledger: Ledger, relabel: Relabeling, work_dir: Path
) -> PassResult:
    """paper-large and auction-dense: config -> placement, and for
    paper-large also the JSONL event log and its audit from disk."""
    cfg: ExperimentConfig = ctx["config"]
    events = ctx["events"]
    steps: dict = {}
    layers: dict[str, float] = {}
    inst = relabel.instance(_build(ledger, cfg, steps, layers))
    sink = ev.ColumnarSink()
    with ledger.call("core.run_agt_ram") as steps["auction"]:
        if events:
            with ev.logical_time(), ev.capture(sink):
                result = run_agt_ram(inst)
        else:
            result = run_agt_ram(inst)
    place = _summed(steps)
    layers.update(_auction_layers(result, steps["auction"].seconds))
    failures = check_placement(result)
    e2e = {"place_s": place, "otc_savings_pct": result.savings_percent}
    fingerprint: tuple = (result.rounds, result.otc, result.state.n_replicas_added)
    if events:
        path = work_dir / "events.jsonl"
        with ledger.call("obs.write_events_jsonl") as steps["export"]:
            write_events_jsonl(sink.iter_events(), path)
        with ledger.call("obs.audit_file") as steps["audit"]:
            report = audit_file(path)
        export_bytes = path.stat().st_size
        path.unlink()
        failures += check_audit("audit_file", report)
        n_events = len(sink)
        export_s, audit_s = steps["export"].seconds, steps["audit"].seconds
        e2e["log_audit_s"] = export_s + audit_s
        layers.update(
            {
                "obs.events": n_events,
                "obs.capture_bytes": sink.nbytes,
                "obs.export_s": export_s,
                "obs.export_bytes": export_bytes,
                "obs.export_events_per_s": n_events / export_s,
                "obs.audit_s": audit_s,
                "obs.audit_events_per_s": n_events / audit_s,
            }
        )
        fingerprint += (n_events, sink.nbytes, export_bytes)
    e2e["campaign_s"] = _summed(steps)
    return PassResult(e2e, layers, fingerprint, failures)


def _pulls(items: list, stamps: list[float]) -> Iterator:
    """Yield ``items``, stamping the clock as each one is pulled."""
    stamp = stamps.append
    for item in items:
        stamp(perf_counter())
        yield item


def materialize_serve_inputs(ctx: dict, ledger: Ledger) -> None:
    """Materialize serve-drift's request stream and fault schedule, from
    their own seeds, once per run and before any timed pass.

    Their time is ``serving.traffic_s``; it is not part of
    ``campaign_s`` or ``serve_rps``.
    """
    base: DRPInstance = ctx["base"]
    n = ctx["requests"]
    with ledger.call("serving.make_traffic") as t_traffic:
        traffic = make_traffic("drift", base, n, seed=ctx["serve_seed"])
        ctx["stream"] = list(traffic.stream)
    with ledger.call("runtime.FaultSchedule.random") as t_faults:
        ctx["faults"] = FaultSchedule.random(
            n_agents=base.n_servers,
            horizon=max(1, math.ceil(n / ctx["config"].requests_per_round)),
            seed=ctx["fault_seed"],
            crash_rate=0.05,
            mean_outage=2.0,
            straggler_rate=0.02,
        )
    ctx["traffic"] = traffic
    ctx["traffic_s"] = t_traffic.seconds + t_faults.seconds


def serve_pass(
    ctx: dict, ledger: Ledger, relabel: Relabeling, work_dir: Path
) -> PassResult:
    """serve-drift: demand-aligned placement by the protocol runtime,
    then the serving campaign and both audits of its log."""
    n = ctx["requests"]
    traffic = ServingTraffic(
        workload=ctx["traffic"].workload,
        stream=iter(()),
        reads=relabel.matrix(ctx["traffic"].reads),
        writes=relabel.matrix(ctx["traffic"].writes),
    )
    stream = relabel.requests(ctx["stream"])
    plan = relabel.faults(ctx["faults"])
    base = relabel.instance(ctx["base"])

    steps: dict = {}
    with ledger.call("serving.with_demand") as steps["demand"]:
        inst = with_demand(base, traffic)
    with ledger.call("runtime.SemiDistributedSimulator.run") as steps["place"]:
        placement = SemiDistributedSimulator().run(inst)
    sink = ev.ColumnarSink()
    stamps: list[float] = []
    requests = _pulls(stream, stamps) if ledger.traced else stream
    with ledger.call("serving.serve") as steps["serve"]:
        with ev.logical_time(), ev.capture(sink):
            rep = serve(
                inst,
                placement.state,
                requests,
                config=ctx["config"],
                faults=plan,
                seed=ctx["serve_seed"],
                workload="drift",
                n_requests=n,
            )
    with ledger.call("obs.audit_serving_events") as steps["serving_audit"]:
        serving_audit = audit_serving_events(sink.events)
    with ledger.call("obs.audit_events") as steps["mechanism_audit"]:
        mech_audit = audit_events(sink.events)

    failures = check_audit("serving audit", serving_audit)
    failures += check_audit("mechanism audit", mech_audit)
    if rep.served + rep.failed + rep.shed != n:
        failures.append(
            f"served {rep.served} + failed {rep.failed} + shed {rep.shed} "
            f"!= {n} requests"
        )
    # Untimed: the protocol runtime must reach the centralized outcome.
    with ledger.call("core.run_agt_ram") as t_central:
        central = run_agt_ram(inst)
    if not np.array_equal(central.state.x, placement.state.x):
        failures.append("protocol-runtime X differs from run_agt_ram's X")

    serve_s = steps["serve"].seconds
    audit_s = steps["serving_audit"].seconds + steps["mechanism_audit"].seconds
    fail_ratio = (rep.failed + rep.shed) / n
    e2e = {
        "place_s": steps["place"].seconds,
        "campaign_s": _summed(steps),
        "otc_savings_pct": placement.savings_percent,
        "log_audit_s": audit_s,
        "serve_rps": n / serve_s,
        "request_fail_ratio": fail_ratio,
        "serve_sim_p99": rep.p99,
    }
    log = placement.extra["metrics"].log
    layers = {
        **_auction_layers(central, t_central.seconds),
        "obs.events": len(sink),
        "obs.capture_bytes": sink.nbytes,
        "runtime.place_s": steps["place"].seconds,
        "runtime.rounds": placement.rounds,
        "runtime.messages": log.total_messages(),
        "runtime.bytes": log.bytes_total,
        "serving.traffic_s": ctx["traffic_s"],
        "serving.serve_s": serve_s,
        "serving.rps": n / serve_s,
        "serving.failovers": rep.failovers,
        "serving.timeouts": rep.timeouts,
        "serving.hedges": rep.hedges,
        "serving.shed": rep.shed,
        "serving.reauctions": rep.reauctions,
        "serving.fail_ratio": fail_ratio,
        "serving.sim_p99": rep.p99,
        "serving.audit_s": audit_s,
    }
    if ledger.traced:
        gaps = np.diff(np.asarray(stamps)) * 1e6
        attempts = sum(
            e.attempts for e in sink.iter_events() if isinstance(e, ev.RequestEvent)
        )
        layers.update(
            {
                "serving.request_p50_us": float(np.percentile(gaps, 50)),
                "serving.request_p99_us": float(np.percentile(gaps, 99)),
                "serving.attempts_per_served": attempts / max(1, rep.served),
            }
        )
    fingerprint = (
        placement.rounds,
        placement.otc,
        log.total_messages(),
        log.bytes_total,
        rep.to_dict(),
        len(sink),
        sink.nbytes,
    )
    return PassResult(e2e, layers, fingerprint, failures)


# -- workload table -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: Modules a process running this workload imports (timed in set-up).
    modules: tuple[str, ...]
    #: Builds the pass context for a scale ("full" or "tiny").  Work done
    #: here is untimed input set-up and counts toward ``setup_s``.
    setup: Callable[[str], dict[str, Any]]
    run_pass: Callable[..., PassResult]
    #: Materializes timed inputs into the context once per run, before
    #: the first pass: ``prepare(ctx, ledger)``.
    prepare: Callable[[dict, Ledger], None] = lambda ctx, ledger: None


_PLACEMENT_MODULES = (
    "numpy",
    "scipy.sparse.csgraph",
    "repro.experiments.instances",
    "repro.core.agt_ram",
    "repro.drp.feasibility",
)


def _paper_large(scale: str) -> dict[str, Any]:
    full = ExperimentConfig(
        n_servers=640, n_objects=3200, total_requests=9_600_000,
        rw_ratio=0.75, capacity_fraction=0.25, seed=2007, name="paper-large",
    )
    tiny = full.with_(n_servers=16, n_objects=60, total_requests=8_000)
    cfg = full if scale == "full" else tiny
    return {"config": cfg, "events": True, "m": cfg.n_servers, "n": cfg.n_objects}


def _auction_dense(scale: str) -> dict[str, Any]:
    full = ExperimentConfig(
        n_servers=200, n_objects=8000, total_requests=2_400_000,
        rw_ratio=0.95, capacity_fraction=0.6, seed=2007, name="auction-dense",
    )
    tiny = full.with_(n_servers=12, n_objects=120, total_requests=6_000)
    cfg = full if scale == "full" else tiny
    return {"config": cfg, "events": False, "m": cfg.n_servers, "n": cfg.n_objects}


def _serve_drift(scale: str) -> dict[str, Any]:
    # ``python -m repro serve --workload drift --servers 120 --objects 600
    # --serve-requests 200000 --crash-rate 0.05 --straggler-rate 0.02
    # --fault-seed 5`` (the fault rates and seed of ``make serve``): the
    # serve command's defaults for everything else.
    base_cfg = ExperimentConfig(
        n_servers=120, n_objects=600, total_requests=4_000, rw_ratio=0.9,
        capacity_fraction=0.5, topology_params={"p": 0.4}, seed=0,
        name="serve-drift",
    )
    requests = 200_000
    if scale != "full":
        base_cfg = base_cfg.with_(n_servers=12, n_objects=40)
        requests = 3_000
    base = paper_instance(base_cfg)
    config = ServeConfig(
        drift_window=800, drift_threshold=0.15, drift_top_k=8, max_reauctions=3
    )
    return {
        "base": base,
        "config": config,
        "requests": requests,
        "serve_seed": 11,
        "fault_seed": 5,
        "m": base.n_servers,
        "n": base.n_objects,
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-large",
            _PLACEMENT_MODULES + ("repro.obs.export", "repro.obs.audit"),
            _paper_large,
            placement_pass,
        ),
        Workload("auction-dense", _PLACEMENT_MODULES, _auction_dense, placement_pass),
        Workload(
            "serve-drift",
            _PLACEMENT_MODULES
            + ("repro.obs.audit", "repro.runtime.simulator", "repro.serving"),
            _serve_drift,
            serve_pass,
            materialize_serve_inputs,
        ),
    )
}
