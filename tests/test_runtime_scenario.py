"""Tests for the composed-scenario DSL, campaign gates, and shrinking."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import events as ev
from repro.obs.audit import audit_sharded_events
from repro.runtime.scenario import (
    CATALOG,
    LOTTERY_BUDGET_CAP,
    LOTTERY_BUDGET_MARGIN,
    AdversaryPlane,
    FaultPlane,
    PartitionPlane,
    Scenario,
    expected_degraded_fraction,
    materialize,
    run_scenario,
    scenario_fails,
    shrink_scenario,
)


@pytest.fixture(scope="module")
def showcase_outcome():
    return run_scenario(CATALOG["showcase"])


class TestPlaneRoundTrips:
    def test_fault_plane(self):
        p = FaultPlane(crash_rate=0.05, straggler_rate=0.1,
                       serving_crash_rate=0.02, checkpoint_period=4)
        assert FaultPlane.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    def test_adversary_plane_with_window(self):
        p = AdversaryPlane(fraction=0.2, behaviors=("inflate",),
                           window=(3, 9), strikes=2)
        back = AdversaryPlane.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p
        assert back.window == (3, 9)

    def test_partition_plane_explicit(self):
        p = PartitionPlane(
            windows=({"start": 2, "end": 5, "islands": [0, 1]},),
            central_crashes=((4, 0),),
        )
        assert p.explicit
        back = PartitionPlane.from_dict(json.loads(json.dumps(p.to_dict())))
        assert back == p

    def test_partition_plane_random_is_not_explicit(self):
        assert not PartitionPlane(fraction=0.3).explicit

    def test_plane_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlane(crash_rate=1.0)
        with pytest.raises(ConfigurationError):
            AdversaryPlane(fraction=1.5)


class TestScenarioRoundTrip:
    def test_full_composition_round_trips_through_json(self):
        sc = Scenario(
            name="rt", seed=42, workload="drift",
            faults=FaultPlane(crash_rate=0.03),
            adversary=AdversaryPlane(fraction=0.25, window=(0, 8)),
            partition=PartitionPlane(fraction=0.2),
            availability_floor=0.8, min_availability=0.9,
        )
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc

    def test_null_planes_round_trip_as_none(self):
        sc = Scenario(name="bare", seed=1)
        back = Scenario.from_dict(sc.to_dict())
        assert back.faults is None
        assert back.adversary is None
        assert back.partition is None
        assert back == sc

    def test_from_dict_ignores_unknown_keys(self):
        d = Scenario(name="x").to_dict()
        d["future_knob"] = 123
        assert Scenario.from_dict(d).name == "x"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(workload="nope")
        with pytest.raises(ConfigurationError):
            Scenario(horizon=0)
        with pytest.raises(ConfigurationError):
            Scenario(regions=0)

    def test_lottery_is_deterministic_per_ticket(self):
        assert Scenario.random(5) == Scenario.random(5)
        assert Scenario.random(5) != Scenario.random(6)
        # Draws are JSON round-trippable like any scenario.
        sc = Scenario.random(11)
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


class TestCatalog:
    def test_names_match_keys_and_round_trip(self):
        for key, sc in CATALOG.items():
            assert sc.name == key
            assert Scenario.from_dict(sc.to_dict()) == sc

    def test_smoke_passes_its_gates(self):
        out = run_scenario(CATALOG["smoke"])
        assert out.ok, out.failures
        assert out.report["serving"]["availability"] >= 0.9

    def test_showcase_survives_the_composed_storm(self, showcase_outcome):
        out = showcase_outcome
        assert out.ok, out.failures
        # All four planes actually materialized.
        assert out.report["planes"] == {
            "faults": True, "serving_faults": True,
            "adversary": True, "partition": True,
        }
        assert out.report["serving"]["availability"] >= 0.95
        assert out.report["invariants"]["violations"] == 0
        assert out.report["audits"]["sharded_ok"]
        assert out.report["audits"]["serving_ok"]
        assert out.report["audits"]["reauction_ok"]
        # The scripted partition produced real split-brain work.
        assert out.report["placement"]["conflicts"] > 0
        assert out.report["recovery"]["n_incidents"] > 0

    def test_showcase_report_is_byte_reproducible(self, showcase_outcome):
        again = run_scenario(CATALOG["showcase"])
        assert json.dumps(again.report, sort_keys=True) == json.dumps(
            showcase_outcome.report, sort_keys=True
        )

    def test_materialize_null_scenario_has_no_planes(self):
        mat = materialize(Scenario(name="bare", seed=3))
        assert mat.fault_plan is None
        assert mat.serving_faults is None
        assert mat.adversary is None
        assert mat.quarantine is None
        assert mat.partition is None


class TestLotteryBudget:
    def test_budget_derives_from_the_tickets_own_rates(self):
        for seed in range(10):
            sc = Scenario.random(seed)
            expected = expected_degraded_fraction(
                sc.faults, sc.partition, horizon=sc.horizon,
                regions=sc.regions,
            )
            assert sc.max_degraded_fraction == min(
                LOTTERY_BUDGET_CAP, expected + LOTTERY_BUDGET_MARGIN
            )
            assert sc.max_degraded_fraction <= 0.9

    def test_expected_fraction_of_the_plane_formulas(self):
        assert expected_degraded_fraction(
            None, None, horizon=32, regions=4
        ) == 0.0
        # p = 0.05, L = 4 -> q = 0.2 / 1.2; c = 0.1 downs every agent.
        faults = FaultPlane(crash_rate=0.05, mean_outage=4.0,
                            central_crash_rate=0.1)
        assert expected_degraded_fraction(
            faults, None, horizon=32, regions=4
        ) == pytest.approx(1 - (1 - 0.2 / 1.2) * 0.9)
        # 25% of the horizon plus one mean width (8 of 32 rounds).
        part = PartitionPlane(fraction=0.25, mean_width=8.0)
        assert expected_degraded_fraction(
            None, part, horizon=32, regions=4
        ) == pytest.approx(0.5)


class TestComposedAudit:
    """Satellite: the composed mechanism log stays audit-clean, and any
    single plane's declarations cannot be tampered with undetected."""

    def test_composed_log_passes_sharded_audit(self, showcase_outcome):
        mech = showcase_outcome.events[: showcase_outcome.split]
        assert audit_sharded_events(mech).ok

    def test_payment_tamper_is_detected(self, showcase_outcome):
        mech = list(showcase_outcome.events[: showcase_outcome.split])
        i = next(
            k for k, e in enumerate(mech)
            if isinstance(e, ev.PaymentEvent) and e.amount > 0
        )
        mech[i] = dataclasses.replace(mech[i], amount=mech[i].amount * 10 + 5)
        assert not audit_sharded_events(mech).ok

    def test_winner_tamper_is_detected(self, showcase_outcome):
        mech = list(showcase_outcome.events[: showcase_outcome.split])
        i = next(
            k for k, e in enumerate(mech) if isinstance(e, ev.WinnerEvent)
        )
        mech[i] = dataclasses.replace(mech[i], value=mech[i].value * 10 + 7)
        assert not audit_sharded_events(mech).ok

    def test_dropped_reconcile_is_detected(self, showcase_outcome):
        mech = showcase_outcome.events[: showcase_outcome.split]
        stripped = [e for e in mech if not isinstance(e, ev.ReconcileEvent)]
        assert len(stripped) < len(mech)  # the split actually reconciled
        assert not audit_sharded_events(stripped).ok


class TestShrinking:
    def test_impossible_gate_shrinks_to_a_minimal_repro(self):
        broken = dataclasses.replace(
            CATALOG["smoke"], name="broken", min_availability=1.01
        )
        assert scenario_fails(broken)
        shrunk, probes = shrink_scenario(broken, scenario_fails)
        assert 0 < probes <= 64
        assert shrunk.name == "broken-shrunk"
        # An unreachable availability bound fails with every plane
        # stripped, so the shrinker removes all of them.
        assert shrunk.faults is None
        assert shrunk.adversary is None
        assert shrunk.partition is None
        assert shrunk.n_requests < broken.n_requests
        # The minimized scenario still reproduces the failure.
        assert scenario_fails(shrunk)
        # ... and round-trips, so the written repro file is usable.
        assert Scenario.from_dict(shrunk.to_dict()) == shrunk

    def test_passing_scenario_does_not_shrink(self):
        sc = CATALOG["smoke"]
        shrunk, probes = shrink_scenario(sc, scenario_fails)
        assert shrunk == sc
        assert probes > 0  # it did probe, nothing reproduced

    def test_crashing_candidate_counts_as_failing(self):
        def fails(sc):
            raise RuntimeError("boom")

        broken = dataclasses.replace(CATALOG["smoke"], name="crashy")
        shrunk, _ = shrink_scenario(broken, fails, max_steps=3)
        assert shrunk.name == "crashy-shrunk"


class TestStrictMode:
    def test_strict_run_of_a_clean_scenario_completes(self):
        out = run_scenario(CATALOG["smoke"], strict=True)
        assert out.ok, out.failures
