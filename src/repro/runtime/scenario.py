"""Composed failure-plane scenarios and the one campaign executor.

A :class:`Scenario` is one declarative, JSON-round-trippable object
composing every failure plane the runtime knows about — a fault plane
(crashes / stragglers / central outages), an adversary plane (Byzantine
bids plus the quarantine defence), a partition plane (regional
split-brain with regional central crashes) — with a serving workload
regime (``worldcup`` / ``drift`` / ``flashcrowd``).  :func:`materialize`
realizes it as a :class:`MaterializedScenario`; :func:`execute` runs any
realized run end to end over the sharded serving stack: the regional
mechanism (:class:`~repro.runtime.shard.ShardedAGTRam`) auctions a
placement for the workload's measured demand, then the serving loop
(:func:`~repro.serving.loop.serve`) streams the workload against it.
:func:`run_scenario` is the two in a row, gated on the scenario's own
bounds.  Every campaign command (``chaos``, ``adversary``, ``serve``,
``shard``, ``resilience``) builds its realized runs from its flags and
runs them through :func:`execute` and :func:`gate`; a mechanism-only
run simply has no traffic.

**RNG discipline.**  Every plane draws its realization from an
independent :func:`~repro.utils.rng.substream` of the scenario seed
(``scenario/faults``, ``scenario/adversary``, ``scenario/partition``,
``scenario/workload``, …), so planes compose without perturbing each
other: adding a plane never changes another plane's realization, and a
plane that materializes to nothing (zero rates, empty draw) is passed
to the runtime as ``None`` — making the run byte-identical to the same
scenario with the plane absent.

**Online verification.**  The whole run is captured through an
:class:`~repro.runtime.invariants.InvariantMonitor` under the logical
event clock, so safety violations are caught *while* they happen (and
abort the run under ``strict``).  Afterwards the log is split at the
mechanism/serving boundary and replayed through the offline audits
(:func:`~repro.obs.audit.audit_sharded_events` for the regional
mechanism, :func:`~repro.obs.audit.audit_serving_events` plus the flat
mechanism audit for the serving tail and its nested re-auctions), the
recovery accountant (:func:`~repro.obs.recovery.recovery_accounting`)
and the detection-recall join.  The result is one run record, and
:func:`gate` applies whichever bounds a campaign sets.  Everything runs
on the logical clock, so a scenario's report is byte-for-byte
reproducible from its JSON.

**Shrinking.**  When a scenario fails its gates,
:func:`shrink_scenario` greedily minimizes it — dropping whole planes,
halving the workload and the horizon — while re-running the predicate,
returning the smallest still-failing scenario for the repro artifact.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.obs import events as ev
from repro.obs.recovery import RecoveryReport, recovery_accounting
from repro.runtime.adversary import (
    BEHAVIORS,
    AdversaryPlan,
    QuarantinePolicy,
)
from repro.runtime.faults import FaultPlan, FaultSchedule
from repro.runtime.invariants import InvariantConfig, InvariantMonitor
from repro.runtime.shard import (
    PartitionSchedule,
    PartitionWindow,
    ShardedAGTRam,
    _crash,
    _int,
    _list,
    _mapping,
)
from repro.serving import (
    SERVE_WORKLOADS,
    ServeConfig,
    ServingTraffic,
    make_traffic,
    serve,
    with_demand,
)
from repro.utils.rng import SeedLike, substream

__all__ = [
    "FaultPlane",
    "AdversaryPlane",
    "PartitionPlane",
    "Scenario",
    "ScenarioOutcome",
    "MaterializedScenario",
    "CATALOG",
    "expected_degraded_fraction",
    "materialize",
    "serving_traffic",
    "execute",
    "gate",
    "run_scenario",
    "shrink_scenario",
]


def _plane_seed(seed: int, name: str) -> int:
    """The independent integer seed plane ``name`` materializes from.

    One draw from a spawn-keyed substream of the scenario seed: planes
    never share randomness, and a plane's realization is a pure
    function of ``(seed, name)`` — unchanged by which other planes the
    scenario carries.
    """
    return int(substream(seed, f"scenario/{name}").integers(2**31 - 1))


# -- decoding ----------------------------------------------------------------


def _field(default: Any, value: Any, what: str) -> Any:
    """Decode one JSON scalar by the type of its field's default: an
    ``int`` field takes an integer, a ``float`` (or ``None``-default,
    i.e. optional bound) field a number, a ``str`` field a string."""
    if isinstance(default, int):
        return _int(value, what)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigurationError(f"{what} must be a string, got {value!r}")
        return value
    if default is None and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{what} must be a number, got {value!r}")
    return float(value)


def _decode(cls: Any, d: Any, what: str, **special: Callable) -> Any:
    """Build dataclass ``cls`` from JSON object ``d``, field by field.

    Unknown keys are ignored and missing ones take their defaults;
    ``special`` decodes the non-scalar fields.  Malformed input raises
    :class:`~repro.errors.ConfigurationError`, never a raw
    ``TypeError``/``IndexError``.
    """
    d = _mapping(d, what)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in d:
            name = f"{what} {f.name}"
            decode = special.get(f.name)
            kwargs[f.name] = (
                decode(d[f.name], name) if decode is not None
                else _field(f.default, d[f.name], name)
            )
    return cls(**kwargs)


def _pair(value: Any, what: str) -> Optional[tuple[int, int]]:
    if value is None:
        return None
    pair = _list(value, what)
    if len(pair) != 2:
        raise ConfigurationError(f"{what} must be a [start, end] pair")
    return _int(pair[0], what), _int(pair[1], what)


def _plane(cls: Any) -> Callable[[Any, str], Any]:
    return lambda value, what: None if value is None else cls.from_dict(value)


# -- the planes --------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlane:
    """Crash/straggler knobs, for the mechanism and the serving phase.

    The mechanism schedule (agent crashes, stragglers, whole-central
    crashes) is sampled over the scenario ``horizon`` protocol rounds;
    the serving schedule (``serving_*`` knobs) over the serving-round
    horizon.  Both draw from their own substreams.  All rates zero
    materializes to nothing — byte-identical to no fault plane at all.
    """

    crash_rate: float = 0.0
    mean_outage: float = 3.0
    straggler_rate: float = 0.0
    central_crash_rate: float = 0.0
    checkpoint_period: int = 8
    serving_crash_rate: float = 0.0
    serving_straggler_rate: float = 0.0
    serving_mean_outage: float = 3.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "straggler_rate", "central_crash_rate",
                     "serving_crash_rate", "serving_straggler_rate"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ConfigurationError(
                    f"fault plane {name} must be in [0, 1); got {p}"
                )

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FaultPlane":
        return _decode(cls, d, "faults")


@dataclass(frozen=True)
class AdversaryPlane:
    """Byzantine-bid knobs plus the quarantine defence policy."""

    fraction: float = 0.25
    behaviors: tuple[str, ...] = BEHAVIORS
    factor: float = 2.0
    activity: float = 1.0
    #: Optional attack window ``[start, end)`` in protocol rounds;
    #: outside it the scripted agents bid honestly and the runtime may
    #: treat the adversary as dormant.
    window: Optional[tuple[int, int]] = None
    strikes: int = 3
    probation: int = 20
    max_quarantines: int = 3

    def __post_init__(self) -> None:
        if not (0.0 <= self.fraction <= 1.0):
            raise ConfigurationError(
                f"adversary fraction must be in [0, 1], got {self.fraction}"
            )
        object.__setattr__(self, "behaviors", tuple(self.behaviors))
        unknown = [b for b in self.behaviors if b not in BEHAVIORS]
        if unknown:
            raise ConfigurationError(
                f"unknown adversary behaviors {unknown}; pick from "
                f"{BEHAVIORS}"
            )
        if self.window is not None:
            object.__setattr__(
                self, "window", (int(self.window[0]), int(self.window[1]))
            )

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["behaviors"] = list(self.behaviors)
        d["window"] = None if self.window is None else list(self.window)
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AdversaryPlane":
        return _decode(
            cls, d, "adversary",
            behaviors=lambda v, what: tuple(
                _field("", b, what) for b in _list(v, what)
            ),
            window=_pair,
        )


@dataclass(frozen=True)
class PartitionPlane:
    """Regional split-brain knobs, random or scripted.

    With explicit ``windows`` / ``central_crashes`` the schedule is
    exactly what is written (curated scenarios stay deterministic under
    any seed); otherwise a random schedule is sampled from the knobs
    over the scenario horizon.  ``windows`` entries are
    ``{"start", "end", "islands"}`` dicts; ``central_crashes`` are
    ``(round, region)`` pairs.
    """

    fraction: float = 0.3
    mean_width: float = 6.0
    islands: int = 2
    crash_rate: float = 0.0
    windows: tuple[Mapping[str, Any], ...] = ()
    central_crashes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "windows", tuple(dict(w) for w in self.windows)
        )
        object.__setattr__(
            self,
            "central_crashes",
            tuple((int(r), int(g)) for r, g in self.central_crashes),
        )

    @property
    def explicit(self) -> bool:
        return bool(self.windows) or bool(self.central_crashes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "fraction": self.fraction,
            "mean_width": self.mean_width,
            "islands": self.islands,
            "crash_rate": self.crash_rate,
            "windows": [dict(w) for w in self.windows],
            "central_crashes": [list(c) for c in self.central_crashes],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PartitionPlane":
        def windows(value: Any, what: str) -> tuple[Mapping[str, Any], ...]:
            out = tuple(_list(value, what))
            for w in out:
                PartitionWindow.from_dict(w)  # validates
            return out

        return _decode(
            cls, d, "partition",
            windows=windows,
            central_crashes=lambda v, what: tuple(
                _crash(c) for c in _list(v, what)
            ),
        )


# -- the scenario ------------------------------------------------------------


#: Sampling allowance a lottery ticket's degraded-agent budget adds to
#: the fraction its own rates predict (see docs/robustness.md).
LOTTERY_BUDGET_MARGIN = 0.2
#: Upper cap on any lottery ticket's degraded-agent budget.
LOTTERY_BUDGET_CAP = 0.9
#: Largest scenario ``horizon`` and ``n_requests``: the random fault and
#: partition schedules walk every round of the horizon per agent, so a
#: scenario file must not be able to ask for an unbounded walk.
MAX_HORIZON = 10_000
MAX_N_REQUESTS = 1_000_000


def expected_degraded_fraction(
    faults: Optional[FaultPlane],
    partition: Optional[PartitionPlane],
    *,
    horizon: int,
    regions: int,
) -> float:
    """The degraded agent fraction a random plane pair predicts.

    An agent that crashes with rate p per round and stays down L rounds
    on average is down a share q = pL / (1 + pL) of the time.  A
    whole-central crash (rate c) downs every agent for its round.  A
    random partition covers its ``fraction`` of the horizon plus, on
    average, one ``mean_width`` of overshoot (windows are placed until
    the target is covered, and the last one is geometric), and each of
    the ``regions`` regional centrals crashes at its own rate.  The
    planes are independent, so the up-shares multiply.
    """
    up = 1.0
    if faults is not None:
        pl = faults.crash_rate * faults.mean_outage
        up *= (1.0 - pl / (1.0 + pl)) * (1.0 - faults.central_crash_rate)
    if partition is not None:
        covered = min(1.0, partition.fraction + partition.mean_width / horizon)
        up *= (1.0 - covered) * (1.0 - partition.crash_rate) ** regions
    return 1.0 - up


@dataclass(frozen=True)
class Scenario:
    """One composed resilience experiment, reproducible from its JSON.

    Instance shape (``servers`` … ``topology``), sharding (``regions``),
    the plane-materialization ``horizon`` (protocol rounds the random
    fault/partition schedules cover), the serving regime (``workload``,
    ``n_requests``) and the three optional failure planes.  The gate
    thresholds ride along so a catalog entry carries its own pass/fail
    contract; ``None`` disables that gate.
    """

    name: str = "scenario"
    seed: int = 0
    servers: int = 10
    objects: int = 30
    requests: int = 4000
    rw_ratio: float = 0.75
    capacity: float = 0.5
    topology: str = "random"
    regions: int = 4
    horizon: int = 32
    workload: str = "worldcup"
    n_requests: int = 4000
    faults: Optional[FaultPlane] = None
    adversary: Optional[AdversaryPlane] = None
    partition: Optional[PartitionPlane] = None
    #: Online availability floor over a sliding window (0 disables).
    availability_floor: float = 0.0
    availability_window: int = 200
    #: Gates (None disables): end-of-run availability, degraded-round
    #: budget, detection recall over injected manipulations.
    min_availability: Optional[float] = None
    max_degraded_fraction: Optional[float] = None
    min_recall: Optional[float] = None

    def __post_init__(self) -> None:
        if self.workload not in SERVE_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; pick from "
                f"{SERVE_WORKLOADS}"
            )
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")
        if min(self.servers, self.objects, self.horizon) < 1:
            raise ConfigurationError(
                "servers, objects and horizon must be >= 1"
            )
        if self.horizon > MAX_HORIZON:
            raise ConfigurationError(
                f"horizon must be <= {MAX_HORIZON}, got {self.horizon}"
            )
        if not 1 <= self.regions <= self.servers:
            raise ConfigurationError(
                f"regions must be in [1, servers={self.servers}], got "
                f"{self.regions}"
            )
        if not 1 <= self.n_requests <= MAX_N_REQUESTS:
            raise ConfigurationError(
                f"n_requests must be in [1, {MAX_N_REQUESTS}], got "
                f"{self.n_requests}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "servers": self.servers,
            "objects": self.objects,
            "requests": self.requests,
            "rw_ratio": self.rw_ratio,
            "capacity": self.capacity,
            "topology": self.topology,
            "regions": self.regions,
            "horizon": self.horizon,
            "workload": self.workload,
            "n_requests": self.n_requests,
            "faults": None if self.faults is None else self.faults.to_dict(),
            "adversary": (
                None if self.adversary is None else self.adversary.to_dict()
            ),
            "partition": (
                None if self.partition is None else self.partition.to_dict()
            ),
            "availability_floor": self.availability_floor,
            "availability_window": self.availability_window,
            "min_availability": self.min_availability,
            "max_degraded_fraction": self.max_degraded_fraction,
            "min_recall": self.min_recall,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Scenario":
        """Decode a scenario JSON object (hostile input: anything
        malformed raises :class:`~repro.errors.ConfigurationError`)."""
        return _decode(
            cls, d, "scenario",
            faults=_plane(FaultPlane),
            adversary=_plane(AdversaryPlane),
            partition=_plane(PartitionPlane),
        )

    @classmethod
    def random(cls, seed: int, *, name: Optional[str] = None) -> "Scenario":
        """One lottery draw: a random plane composition at smoke scale.

        Everything is derived from ``substream(seed,
        "scenario/lottery")``, so draw ``i`` of the campaign lottery is
        a pure function of its ticket seed.
        """
        rng = substream(seed, "scenario/lottery")
        faults = adversary = partition = None
        if rng.random() < 0.7:
            faults = FaultPlane(
                crash_rate=float(rng.uniform(0.01, 0.06)),
                mean_outage=float(rng.uniform(2.0, 5.0)),
                straggler_rate=float(rng.uniform(0.0, 0.08)),
                central_crash_rate=float(rng.uniform(0.0, 0.03)),
                serving_crash_rate=float(rng.uniform(0.0, 0.04)),
                serving_straggler_rate=float(rng.uniform(0.0, 0.05)),
            )
        if rng.random() < 0.6:
            adversary = AdversaryPlane(
                fraction=float(rng.uniform(0.1, 0.3)),
                factor=float(rng.uniform(1.5, 3.0)),
                activity=float(rng.uniform(0.5, 1.0)),
            )
        if rng.random() < 0.6:
            partition = PartitionPlane(
                fraction=float(rng.uniform(0.1, 0.4)),
                mean_width=float(rng.uniform(3.0, 8.0)),
                islands=2,
                crash_rate=float(rng.uniform(0.0, 0.02)),
            )
        expected = expected_degraded_fraction(
            faults, partition, horizon=cls.horizon, regions=cls.regions
        )
        return cls(
            name=name or f"lottery-{seed}",
            seed=int(rng.integers(2**31 - 1)),
            workload=str(rng.choice(SERVE_WORKLOADS)),
            n_requests=2000,
            faults=faults,
            adversary=adversary,
            partition=partition,
            min_availability=0.5,
            max_degraded_fraction=min(
                LOTTERY_BUDGET_CAP, expected + LOTTERY_BUDGET_MARGIN
            ),
        )


# -- materialization ---------------------------------------------------------


@dataclass
class MaterializedScenario:
    """A realized run, ready for :func:`execute`.

    Every plane is concrete here: the instance (with the traffic's
    demand when there is traffic), the runtime plans and the seeds.
    ``traffic`` is ``None`` for a mechanism-only run.  Each campaign
    command builds these from its flags; :func:`materialize` builds one
    from a :class:`Scenario` and passes a plane that realized to nothing
    as ``None`` — the runtime never learns it was declared, which is
    exactly what keeps the null plane byte-identical to its absence.
    """

    instance: Any
    traffic: Optional[ServingTraffic] = None
    fault_plan: Optional[FaultPlan] = None
    serving_faults: Optional[FaultSchedule] = None
    adversary: Optional[AdversaryPlan] = None
    quarantine: Optional[QuarantinePolicy] = None
    partition: Optional[PartitionSchedule] = None
    shard_seed: SeedLike = None
    serve_seed: SeedLike = 0
    serve_config: ServeConfig = field(default_factory=ServeConfig)
    #: Regional centrals; 1 is the paper's flat protocol.
    regions: int = 1
    n_requests: int = 0


def serving_traffic(
    base: Any, workload: str, n_requests: int, *, seed: SeedLike,
    config: ServeConfig,
) -> tuple[Any, ServingTraffic, int]:
    """(instance with the traffic's demand, traffic, serving horizon).

    The horizon is the number of fault-schedule rounds the stream spans
    (``requests_per_round`` request ticks each).
    """
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1, got {n_requests}")
    traffic = make_traffic(workload, base, n_requests, seed=seed)
    horizon = max(1, math.ceil(n_requests / config.requests_per_round))
    return with_demand(base, traffic), traffic, horizon


def materialize(scenario: Scenario) -> MaterializedScenario:
    """Realize every plane from its own substream of the scenario seed."""
    cfg = ExperimentConfig(
        n_servers=scenario.servers,
        n_objects=scenario.objects,
        total_requests=scenario.requests,
        rw_ratio=scenario.rw_ratio,
        capacity_fraction=scenario.capacity,
        topology=scenario.topology,
        topology_params=(
            {"p": 0.4} if scenario.topology == "random" else {}
        ),
        seed=_plane_seed(scenario.seed, "instance"),
        name=scenario.name,
    )
    from repro.experiments.instances import paper_instance

    serve_config = ServeConfig()
    instance, traffic, serve_horizon = serving_traffic(
        paper_instance(cfg),
        scenario.workload,
        scenario.n_requests,
        seed=_plane_seed(scenario.seed, "workload"),
        config=serve_config,
    )

    fault_plan = None
    serving_faults = None
    if scenario.faults is not None:
        fp = scenario.faults
        schedule = FaultSchedule.random(
            n_agents=scenario.servers,
            horizon=scenario.horizon,
            seed=_plane_seed(scenario.seed, "faults"),
            crash_rate=fp.crash_rate,
            mean_outage=fp.mean_outage,
            straggler_rate=fp.straggler_rate,
            central_crash_rate=fp.central_crash_rate,
        )
        if not schedule.is_null:
            fault_plan = FaultPlan(
                schedule=schedule,
                checkpoint_period=fp.checkpoint_period,
                seed=_plane_seed(scenario.seed, "faults/channel"),
            )
        serving_schedule = FaultSchedule.random(
            n_agents=scenario.servers,
            horizon=serve_horizon,
            seed=_plane_seed(scenario.seed, "serving-faults"),
            crash_rate=fp.serving_crash_rate,
            mean_outage=fp.serving_mean_outage,
            straggler_rate=fp.serving_straggler_rate,
        )
        if not serving_schedule.is_null:
            serving_faults = serving_schedule

    adversary = None
    quarantine = None
    if scenario.adversary is not None and scenario.adversary.fraction > 0:
        ap = scenario.adversary
        plan = AdversaryPlan.random(
            n_agents=scenario.servers,
            fraction=ap.fraction,
            behaviors=ap.behaviors,
            factor=ap.factor,
            activity=ap.activity,
            seed=_plane_seed(scenario.seed, "adversary"),
            window=ap.window,
        )
        if not plan.is_null:
            adversary = plan
            quarantine = QuarantinePolicy(
                strikes=ap.strikes,
                probation=ap.probation,
                max_quarantines=ap.max_quarantines,
            )

    partition = None
    if scenario.partition is not None:
        pp = scenario.partition
        if pp.explicit:
            schedule = PartitionSchedule(
                n_regions=scenario.regions,
                windows=tuple(
                    PartitionWindow.from_dict(w) for w in pp.windows
                ),
                central_crashes=pp.central_crashes,
            )
        else:
            schedule = PartitionSchedule.random(
                n_regions=scenario.regions,
                horizon=scenario.horizon,
                seed=_plane_seed(scenario.seed, "partition"),
                partition_fraction=pp.fraction,
                mean_width=pp.mean_width,
                n_islands=pp.islands,
                crash_rate=pp.crash_rate,
            )
        if not schedule.is_null:
            partition = schedule

    return MaterializedScenario(
        instance=instance,
        traffic=traffic,
        fault_plan=fault_plan,
        serving_faults=serving_faults,
        adversary=adversary,
        quarantine=quarantine,
        partition=partition,
        shard_seed=_plane_seed(scenario.seed, "shard"),
        serve_seed=_plane_seed(scenario.seed, "serving"),
        serve_config=serve_config,
        regions=scenario.regions,
        n_requests=scenario.n_requests,
    )


# -- execution ---------------------------------------------------------------


#: Runtime counters every run record's ``placement`` block carries.
_PLACEMENT_EXTRAS = (
    "windows", "heals", "divergent", "conflicts", "revocations",
    "refunded_capacity", "refunded_payment", "reauctioned", "elections",
    "recoveries", "checkpoints", "crashes_injected",
)


@dataclass
class ScenarioOutcome:
    """One executed run: its JSON record plus the live objects."""

    report: dict[str, Any]
    monitor: InvariantMonitor
    recovery: RecoveryReport
    #: The runtime's placement result (mechanism phase).
    placement: Any
    #: Event-list index of the mechanism/serving boundary.
    split: int
    scenario: Optional[Scenario] = None

    @property
    def failures(self) -> list[str]:
        return self.report["failures"]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def events(self) -> list[ev.Event]:
        return self.monitor.events


def gate(
    record: Mapping[str, Any],
    *,
    max_degradation: Optional[float] = None,
    min_recall: Optional[float] = None,
    no_false_quarantines: bool = False,
    min_availability: Optional[float] = None,
    max_p99: Optional[float] = None,
    max_degraded_fraction: Optional[float] = None,
) -> list[str]:
    """The failures of one run record under the bounds a campaign sets.

    Feasibility, the online invariants and every audit the record
    carries always gate; each bound gates only when set (``None``) and
    only where the run has the plane it measures.
    """
    failures: list[str] = []
    if not record["feasible"]:
        failures.append(f"infeasible final scheme: {record['infeasibility']}")
    inv = record["invariants"]
    if inv["violations"]:
        failures.append(
            f"{inv['violations']} invariant violation(s): "
            + ", ".join(sorted(inv["by_invariant"]))
        )
    audits = record["audits"]
    for name in ("sharded", "serving", "reauction"):
        if not audits.get(f"{name}_ok", True):
            failures.append(
                f"{name} audit FAIL "
                f"({len(audits[f'{name}_violations'])} violations)"
            )
    detection = record["detection"]
    if no_false_quarantines and detection["false_quarantines"]:
        failures.append(
            f"honest agents quarantined: {detection['false_quarantines']}"
        )
    serving = record["serving"] or {}
    # (what, measured value or None where the run lacks the plane, bound,
    # whether the bound is a ceiling)
    for what, value, bound, ceiling in (
        ("OTC degradation", record.get("otc_degradation"), max_degradation,
         True),
        ("detection recall",
         detection["recall"] if record["planes"]["adversary"] else None,
         min_recall, False),
        ("availability", serving.get("availability"), min_availability,
         False),
        ("p99 latency", serving.get("p99"), max_p99, True),
        ("degraded agent fraction",
         record["recovery"]["degraded_agent_fraction"],
         max_degraded_fraction, True),
    ):
        if bound is None or value is None:
            continue
        if value > bound if ceiling else value < bound:
            failures.append(
                f"{what} {value:.4f} "
                f"{'exceeds' if ceiling else 'below'} bound {bound:.4f}"
            )
    return failures


def execute(
    mat: MaterializedScenario,
    *,
    invariants: Optional[InvariantConfig] = None,
    baseline_otc: Optional[float] = None,
    **bounds: Any,
) -> ScenarioOutcome:
    """Run one realized run end to end, check it and :func:`gate` it.

    Mechanism phase (:class:`~repro.runtime.shard.ShardedAGTRam` under
    the partition / fault / adversary plans), then — when the run has
    traffic — the serving phase under the serving fault schedule, all
    captured through the online
    :class:`~repro.runtime.invariants.InvariantMonitor` on the logical
    clock (under ``invariants.strict`` the first violation raises
    :class:`~repro.errors.InvariantViolationError` mid-run).  Then the
    final scheme's feasibility, the sharded audit of the mechanism
    events, the serving and re-auction audits of the serving tail, the
    recovery accounting and the detection join.  ``baseline_otc`` adds
    the OTC degradation against a plane-free run; ``bounds`` are
    :func:`gate`'s.
    """
    from repro.drp.feasibility import check_state
    from repro.errors import InfeasibleInstanceError
    from repro.obs.audit import (
        audit_events,
        audit_serving_events,
        audit_sharded_events,
    )

    monitor = InvariantMonitor(ev.ColumnarSink(), config=invariants)
    serving = None
    with ev.logical_time(), ev.capture(monitor):
        placement = ShardedAGTRam(
            n_regions=mat.regions,
            plan=mat.partition,
            faults=mat.fault_plan,
            adversary=mat.adversary,
            quarantine=mat.quarantine,
            seed=mat.shard_seed,
        ).run(mat.instance)
        split = len(monitor)
        if mat.traffic is not None:
            serving = serve(
                mat.instance,
                placement.state,
                mat.traffic.stream,
                config=mat.serve_config,
                faults=mat.serving_faults,
                seed=mat.serve_seed,
                workload=mat.traffic.workload,
                n_requests=mat.n_requests,
            )

    events = monitor.events
    mech_events = events[:split]
    audits = {"sharded": audit_sharded_events(mech_events)}
    if serving is not None:
        audits["serving"] = audit_serving_events(events[split:])
        # The serving tail's nested drift re-auctions are flat mechanism
        # runs; the flat audit covers them (and nothing else down here).
        audits["reauction"] = audit_events(events[split:])
    recovery = recovery_accounting(
        events, n_agents=mat.instance.n_servers
    )

    infeasibility = None
    try:
        check_state(placement.state)
    except InfeasibleInstanceError as exc:  # the details go in the record
        infeasibility = str(exc)

    # Detection quality: injector ground truth vs. online defences,
    # joined on (round, agent).  AdversaryEvent is emitted only for bids
    # the injector actually altered, so recall is over real injections.
    truth: set[tuple[int, int]] = set()
    flagged: set[tuple[int, int]] = set()
    quarantined: set[int] = set()
    for e in mech_events:
        if isinstance(e, ev.AdversaryEvent):
            truth.add((e.round, e.agent))
        elif isinstance(e, (ev.ValidationEvent, ev.ManipulationEvent)):
            if e.agent >= 0:
                flagged.add((e.round, e.agent))
        elif isinstance(e, ev.QuarantineEvent):
            if e.action in ("quarantine", "expel"):
                quarantined.add(e.agent)
    caught = truth & flagged
    byzantine = set(mat.adversary.agents) if mat.adversary else set()

    extra = placement.extra
    log = extra["metrics"].log
    record: dict[str, Any] = {
        "planes": {
            "faults": mat.fault_plan is not None,
            "serving_faults": mat.serving_faults is not None,
            "adversary": mat.adversary is not None,
            "partition": mat.partition is not None,
        },
        "placement": {
            "otc": placement.otc,
            "rounds": placement.rounds,
            "replicas": placement.replicas_allocated,
            "messages": log.total_messages(),
            "bytes": log.bytes_total,
            "message_counts": dict(sorted(log.counts.items())),
            **{k: extra[k] for k in _PLACEMENT_EXTRAS},
        },
        "feasible": infeasibility is None,
        "infeasibility": infeasibility,
        "serving": None if serving is None else serving.to_dict(),
        "invariants": monitor.summary_dict(),
        "recovery": recovery.to_dict(),
        "detection": {
            "injected": len(truth),
            "flagged": len(flagged),
            "recall": len(caught) / len(truth) if truth else 1.0,
            "precision": len(caught) / len(flagged) if flagged else 1.0,
            "false_quarantines": sorted(quarantined - byzantine),
        },
        "audits": {},
        "events": len(events),
    }
    for name, audit in audits.items():
        record["audits"][f"{name}_ok"] = audit.ok
        record["audits"][f"{name}_violations"] = [
            str(v) for v in audit.violations
        ]
    if baseline_otc is not None:
        record["otc_degradation"] = (
            placement.otc / baseline_otc if baseline_otc else 1.0
        )
    if mat.fault_plan is not None:
        record["fault_summary"] = extra["fault_summary"]
    if mat.adversary is not None:
        record["adversary"] = {
            "plan": mat.adversary.to_dict(),
            "summary": extra.get("adversary", {}),
            "trust": extra.get("boundary", {}),
        }
    if mat.partition is not None:
        record["schedule"] = mat.partition.to_dict()
    failures = gate(record, **bounds)
    record["failures"] = failures
    record["ok"] = not failures
    return ScenarioOutcome(
        report=record,
        monitor=monitor,
        recovery=recovery,
        placement=placement,
        split=split,
    )


def run_scenario(scenario: Scenario, *, strict: bool = False) -> ScenarioOutcome:
    """Execute ``scenario`` end to end and gate it on its own bounds.

    :func:`materialize` then :func:`execute`, with the scenario's
    availability floor armed in the online monitor; under ``strict``
    the first invariant violation raises
    :class:`~repro.errors.InvariantViolationError` mid-run.
    """
    outcome = execute(
        materialize(scenario),
        invariants=InvariantConfig(
            availability_floor=scenario.availability_floor,
            availability_window=scenario.availability_window,
            strict=strict,
        ),
        min_availability=scenario.min_availability,
        max_degraded_fraction=scenario.max_degraded_fraction,
        min_recall=scenario.min_recall,
    )
    outcome.scenario = scenario
    outcome.report = {
        "kind": "repro-scenario",
        "scenario": scenario.to_dict(),
        **outcome.report,
    }
    return outcome


# -- shrinking ---------------------------------------------------------------


def _shrink_candidates(sc: Scenario) -> list[Scenario]:
    """Strictly-smaller variants of ``sc``, most aggressive first."""
    out: list[Scenario] = []
    if sc.faults is not None:
        out.append(dataclasses.replace(sc, faults=None))
    if sc.adversary is not None:
        out.append(dataclasses.replace(sc, adversary=None))
    if sc.partition is not None:
        out.append(dataclasses.replace(sc, partition=None))
    if sc.n_requests >= 400:
        out.append(dataclasses.replace(sc, n_requests=sc.n_requests // 2))
    if sc.horizon >= 8:
        out.append(dataclasses.replace(sc, horizon=sc.horizon // 2))
    if sc.availability_window >= 50:
        out.append(
            dataclasses.replace(
                sc, availability_window=sc.availability_window // 2
            )
        )
    if sc.requests >= 1000:
        out.append(dataclasses.replace(sc, requests=sc.requests // 2))
    if (
        sc.adversary is not None
        and sc.adversary.window is not None
        and sc.adversary.window[1] - sc.adversary.window[0] >= 2
    ):
        start, end = sc.adversary.window
        out.append(
            dataclasses.replace(
                sc,
                adversary=dataclasses.replace(
                    sc.adversary, window=(start, start + (end - start) // 2)
                ),
            )
        )
    return out


def shrink_scenario(
    scenario: Scenario,
    fails: Callable[[Scenario], bool],
    *,
    max_steps: int = 64,
) -> tuple[Scenario, int]:
    """Greedily minimize a failing scenario, preserving the failure.

    ``fails(candidate)`` must return True while the defect reproduces
    (a candidate that raises counts as failing — a crash is a repro
    too).  Each accepted candidate restarts the pass; the loop ends
    when no candidate still fails or after ``max_steps`` probes.
    Returns the minimal failing scenario and the number of probes run.
    """
    current = scenario
    probes = 0
    shrunk = True
    while shrunk and probes < max_steps:
        shrunk = False
        for candidate in _shrink_candidates(current):
            if probes >= max_steps:
                break
            probes += 1
            try:
                still_failing = fails(candidate)
            except Exception:
                still_failing = True
            if still_failing:
                current = dataclasses.replace(
                    candidate, name=f"{scenario.name}-shrunk"
                )
                shrunk = True
                break
    return current, probes


def scenario_fails(scenario: Scenario) -> bool:
    """The default shrink predicate: does the scenario fail its gates?"""
    try:
        return not run_scenario(scenario).ok
    except Exception:
        return True


# -- catalog -----------------------------------------------------------------


#: Curated scenarios, smallest first.  ``smoke`` is the CI gate;
#: ``showcase`` is the headline composition — flash-crowd traffic,
#: >=10% Byzantine agents, a scripted regional partition with a
#: regional central crash — expected to survive every gate.
CATALOG: dict[str, Scenario] = {
    "smoke": Scenario(
        name="smoke",
        seed=7,
        servers=8,
        objects=24,
        requests=2000,
        regions=2,
        horizon=16,
        workload="worldcup",
        n_requests=1500,
        faults=FaultPlane(crash_rate=0.03, serving_crash_rate=0.02),
        min_availability=0.9,
        max_degraded_fraction=0.9,
    ),
    "faultstorm": Scenario(
        name="faultstorm",
        seed=11,
        workload="drift",
        faults=FaultPlane(
            crash_rate=0.05,
            straggler_rate=0.08,
            central_crash_rate=0.03,
            serving_crash_rate=0.03,
            serving_straggler_rate=0.05,
        ),
        min_availability=0.8,
        max_degraded_fraction=0.95,
    ),
    "byzantine": Scenario(
        name="byzantine",
        seed=13,
        adversary=AdversaryPlane(fraction=0.25),
        min_availability=0.9,
        min_recall=0.3,
    ),
    "splitbrain": Scenario(
        name="splitbrain",
        seed=17,
        workload="drift",
        partition=PartitionPlane(fraction=0.3, crash_rate=0.01),
        min_availability=0.85,
        max_degraded_fraction=0.95,
    ),
    "showcase": Scenario(
        name="showcase",
        seed=23,
        servers=12,
        objects=36,
        requests=5000,
        regions=4,
        horizon=32,
        workload="flashcrowd",
        n_requests=4000,
        faults=FaultPlane(crash_rate=0.02, serving_crash_rate=0.01),
        adversary=AdversaryPlane(fraction=0.125),
        partition=PartitionPlane(
            windows=({"start": 4, "end": 9, "islands": [0, 0, 1, 1]},),
            central_crashes=((12, 1),),
        ),
        availability_floor=0.5,
        availability_window=400,
        min_availability=0.95,
        max_degraded_fraction=0.9,
        min_recall=0.2,
    ),
}
