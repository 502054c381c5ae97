"""Tests for recovery accounting (MTTR, degradation budget)."""

import json

import pytest

from repro.obs import events as ev
from repro.obs.recovery import Incident, recovery_accounting


def fault(round, kind, agent=-1):
    return ev.FaultEvent(t=0.0, round=round, kind=kind, agent=agent)


def recovery(round, kind, agent=-1):
    return ev.RecoveryEvent(t=0.0, round=round, kind=kind, agent=agent)


def quarantine(round, agent, action, until=-1):
    return ev.QuarantineEvent(
        t=0.0, round=round, agent=agent, action=action, until_round=until,
    )


class TestIncidentMatching:
    def test_central_crash_and_recovery(self):
        rep = recovery_accounting(
            [
                fault(3, "central_crash"),
                recovery(5, "central"),
                ev.RunEnd(t=1.0, algorithm="x", rounds=10),
            ]
        )
        assert [i.to_dict() for i in rep.incidents] == [
            {"kind": "central_crash", "agent": -1,
             "open_round": 3, "close_round": 5}
        ]
        # Rounds 3..5 inclusive -> TTR 3.
        assert rep.mttr == 3.0
        assert rep.total_rounds == 10

    def test_agent_crashes_match_on_id(self):
        rep = recovery_accounting(
            [
                fault(1, "agent_crash", agent=4),
                fault(2, "agent_crash", agent=7),
                recovery(6, "agent", agent=7),
                recovery(3, "agent", agent=4),
            ]
        )
        by_agent = {i.agent: i for i in rep.incidents}
        assert by_agent[4].close_round == 3
        assert by_agent[7].close_round == 6

    def test_partition_and_heal(self):
        rep = recovery_accounting(
            [
                ev.PartitionEvent(t=0.0, round=2, islands=(0, 1)),
                ev.HealEvent(t=0.0, round=4, islands=(0, 1)),
            ]
        )
        (inc,) = rep.incidents
        assert (inc.kind, inc.open_round, inc.close_round) == (
            "partition", 2, 4,
        )

    def test_quarantine_release_and_expel(self):
        rep = recovery_accounting(
            [
                quarantine(1, 3, "quarantine", until=4),
                quarantine(4, 3, "release"),
                quarantine(2, 8, "quarantine", until=5),
                quarantine(6, 8, "expel"),
            ]
        )
        kinds = sorted(i.kind for i in rep.incidents)
        assert kinds == ["expulsion", "quarantine"]
        assert rep.expelled == [8]
        expel = next(i for i in rep.incidents if i.kind == "expulsion")
        assert not expel.closed  # permanent

    def test_open_incidents_become_unrecovered(self):
        rep = recovery_accounting(
            [
                fault(2, "central_crash"),
                fault(3, "agent_crash", agent=1),
                ev.PartitionEvent(t=0.0, round=4, islands=(0, 1)),
                quarantine(5, 6, "quarantine", until=99),
            ]
        )
        assert len(rep.unrecovered) == 4
        assert rep.closed == []
        assert rep.mttr == 0.0  # no closed incidents

    def test_message_faults_are_not_incidents(self):
        rep = recovery_accounting(
            [fault(1, "drop"), fault(2, "delay"), fault(3, "straggler")]
        )
        assert rep.incidents == []


class TestDegradationBudget:
    def test_degraded_rounds_union_infrastructure_only(self):
        rep = recovery_accounting(
            [
                fault(1, "central_crash"),
                recovery(3, "central"),          # degraded 1..3
                ev.PartitionEvent(t=0.0, round=2, islands=(0, 1)),
                ev.HealEvent(t=0.0, round=5, islands=(0, 1)),  # 2..5
                quarantine(0, 9, "quarantine", until=8),
                quarantine(8, 9, "release"),     # excluded from budget
                ev.RunEnd(t=1.0, algorithm="x", rounds=10),
            ]
        )
        # Union of 1..3 and 2..5 is {1,2,3,4,5}.
        assert rep.degraded_rounds == 5
        assert rep.degraded_fraction == pytest.approx(0.5)

    def test_expulsion_excluded_from_budget(self):
        rep = recovery_accounting(
            [
                quarantine(0, 2, "expel"),
                ev.RunEnd(t=1.0, algorithm="x", rounds=20),
            ]
        )
        assert rep.degraded_rounds == 0
        assert rep.unrecovered[0].kind == "expulsion"

    def test_open_infrastructure_incident_degrades_to_run_end(self):
        rep = recovery_accounting(
            [fault(6, "central_crash"),
             ev.RunEnd(t=1.0, algorithm="x", rounds=10)]
        )
        # Rounds 6..9 stay degraded.
        assert rep.degraded_rounds == 4

    def test_total_rounds_override(self):
        rep = recovery_accounting(
            [fault(1, "central_crash"), recovery(2, "central")],
            total_rounds=100,
        )
        assert rep.total_rounds == 100
        assert rep.degraded_fraction == pytest.approx(0.02)

    def test_span_fallback_without_run_end(self):
        rep = recovery_accounting(
            [fault(1, "central_crash"), recovery(7, "central")]
        )
        assert rep.total_rounds == 8  # close_round + 1


class TestReporting:
    def test_mttr_by_kind(self):
        rep = recovery_accounting(
            [
                fault(0, "central_crash"), recovery(1, "central"),   # 2
                fault(2, "agent_crash", agent=1),
                recovery(5, "agent", agent=1),                       # 4
                ev.RunEnd(t=1.0, algorithm="x", rounds=10),
            ]
        )
        assert rep.mttr_by_kind() == {
            "agent_crash": 4.0, "central_crash": 2.0,
        }
        assert rep.mttr == pytest.approx(3.0)

    def test_ttr_minimum_is_one_round(self):
        inc = Incident(kind="partition", agent=-1,
                       open_round=3, close_round=3)
        assert inc.ttr(last_round=9) == 1

    def test_to_dict_is_json_safe(self):
        rep = recovery_accounting(
            [
                fault(1, "central_crash"),
                recovery(2, "central"),
                quarantine(3, 4, "expel"),
                ev.RunEnd(t=1.0, algorithm="x", rounds=8),
            ]
        )
        d = rep.to_dict()
        json.dumps(d)
        assert d["n_incidents"] == 2
        assert d["n_unrecovered"] == 1
        assert d["expelled"] == [4]
        assert d["mttr_by_kind"]["central_crash"] == 2.0

    def test_empty_log(self):
        rep = recovery_accounting([])
        assert rep.incidents == []
        assert rep.total_rounds == 0
        assert rep.degraded_fraction == 0.0
        assert rep.mttr == 0.0


class TestAgentWeightedBudget:
    def test_one_agent_down_all_run_reads_one_over_m(self):
        rep = recovery_accounting(
            [fault(0, "agent_crash", agent=3),
             ev.RunEnd(t=1.0, algorithm="x", rounds=20)],
            n_agents=10,
        )
        # The union saturates; the agent-weighted fraction does not.
        assert rep.degraded_fraction == 1.0
        assert rep.down_agent_rounds == 20
        assert rep.degraded_agent_fraction == pytest.approx(0.1)

    def test_central_crash_and_partition_down_every_agent(self):
        rep = recovery_accounting(
            [
                fault(1, "central_crash"),
                recovery(2, "central"),                      # 1..2
                ev.PartitionEvent(t=0.0, round=6, islands=(0, 1)),
                ev.HealEvent(t=0.0, round=6, islands=(0, 1)),  # 6
                fault(2, "agent_crash", agent=0),
                recovery(4, "agent", agent=0),               # 2..4
                fault(3, "agent_crash", agent=1),
                recovery(3, "agent", agent=1),               # 3
                quarantine(0, 2, "quarantine", until=9),     # excluded
                ev.RunEnd(t=1.0, algorithm="x", rounds=10),
            ],
            n_agents=4,
        )
        # Rounds 1, 2, 6 down all 4; round 3 downs 2; round 4 downs 1.
        assert rep.down_agent_rounds == 3 * 4 + 2 + 1
        assert rep.degraded_agent_fraction == pytest.approx(15 / 40)
        assert rep.degraded_rounds == 5
        d = rep.to_dict()
        assert d["n_agents"] == 4 and d["down_agent_rounds"] == 15

    def test_one_agent_default_equals_the_union(self):
        rep = recovery_accounting(
            [
                fault(0, "agent_crash", agent=1),
                recovery(1, "agent", agent=1),
                fault(1, "agent_crash", agent=5),
                recovery(2, "agent", agent=5),
                ev.RunEnd(t=1.0, algorithm="x", rounds=4),
            ]
        )
        assert rep.n_agents == 1
        assert rep.degraded_agent_fraction == rep.degraded_fraction == 0.75
