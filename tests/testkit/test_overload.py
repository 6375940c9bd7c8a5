"""The overload soak: protected goodput holds through a 10× burst, the
unprotected baseline queue-collapses, and the whole thing is a pure
deterministic function of the seed.

``OVERLOAD_SEED`` / ``OVERLOAD_ROUNDS`` come from the environment so
CI's ``scripts/ci.sh --overload`` can fan the soak out over many seeds;
the defaults keep one short soak in the tier-1 suite.  A failing round
writes a JSON repro artifact to ``OVERLOAD_REPRO_DIR``.
"""

import json
import os

import pytest

from repro.testkit import forbid_sockets
from repro.testkit.overload import (OverloadSoakConfig, arrival_schedule,
                                    overload_round, overload_soak)

OVERLOAD_SEED = int(os.environ.get("OVERLOAD_SEED", "0"))
OVERLOAD_ROUNDS = int(os.environ.get("OVERLOAD_ROUNDS", "2"))


class TestArrivalSchedule:
    def test_three_phases_with_the_burst_in_the_middle(self):
        config = OverloadSoakConfig()
        arrivals = arrival_schedule(config, seed=0)
        per_phase = [0, 0, 0]
        for t, phase in arrivals:
            per_phase[phase] += 1
            assert phase * config.phase_s <= t < (phase + 1) * config.phase_s
        warm, burst, recover = per_phase
        assert burst > 5 * warm             # ~10× the warm rate
        assert abs(recover - warm) < 0.5 * warm
        assert [t for t, _ in arrivals] == sorted(t for t, _ in arrivals)

    def test_same_seed_same_schedule(self):
        config = OverloadSoakConfig()
        assert arrival_schedule(config, 3) == arrival_schedule(config, 3)
        assert arrival_schedule(config, 3) != arrival_schedule(config, 4)


class TestOverloadRound:
    def test_gates_hold_and_report_is_deterministic(self):
        with forbid_sockets():
            a = overload_round(0).to_dict()
            b = overload_round(0).to_dict()
        assert a == b
        json.dumps(a)                       # JSON-safe throughout

    def test_protected_run_sheds_instead_of_collapsing(self):
        with forbid_sockets():
            report = overload_round(1)
        burst = report.protected["burst"]
        assert burst.shed_admission > 0     # admission did the shedding
        assert report.forwards_on_expired_protected == 0
        assert report.brownout_escalations >= 1
        # Recovery really recovers: brownout walked back down.
        assert report.brownout_recoveries >= 1

    def test_baseline_serves_the_backlog_to_nobody(self):
        with forbid_sockets():
            report = overload_round(2)
        base_burst = report.baseline["burst"]
        base_recover = report.baseline["recover"]
        prot_recover = report.protected["recover"]
        # The unprotected queue grew far beyond anything protected held.
        assert base_burst.max_queue_depth > 50 * max(
            s.max_queue_depth for s in report.protected.values())
        # And its recover-phase answers are a small fraction of protected.
        assert base_recover.answered < 0.3 * prot_recover.answered
        assert report.forwards_on_expired_baseline > 0

    def test_gate_failure_message_names_the_gate(self):
        # A load too light to overload anything makes the baseline
        # survive — the queue-collapse gate must fire and say which
        # comparison failed (the gates are under test here, not the
        # system).
        config = OverloadSoakConfig(warm_rps=20.0, phase_s=2.0)
        with forbid_sockets(), \
                pytest.raises(AssertionError,
                              match="queue-collapse|outgrew"):
            overload_round(0, config=config)


class TestOverloadSoak:
    def test_soak_summarizes_rounds(self):
        summary = overload_soak(seed=OVERLOAD_SEED, rounds=OVERLOAD_ROUNDS)
        assert summary["rounds"] == OVERLOAD_ROUNDS
        assert summary["min_burst_goodput_ratio"] >= 0.7
        assert summary["min_recover_goodput_ratio"] >= 0.7
        assert summary["max_baseline_backlog"] > 1000
        # every round's burst must engage the ladder at least once
        assert summary["brownout_escalations"] >= OVERLOAD_ROUNDS

    def test_failed_round_writes_a_repro_artifact(self, tmp_path,
                                                  monkeypatch):
        import repro.testkit.overload as mod

        def exploding_round(seed, config=None):
            raise AssertionError("synthetic gate failure")

        monkeypatch.setattr(mod, "overload_round", exploding_round)
        with pytest.raises(AssertionError, match="repro"):
            mod.overload_soak(seed=9, rounds=1, repro_dir=str(tmp_path))
        artifacts = list(tmp_path.glob("overload-seed9-round0*.json"))
        assert len(artifacts) == 1
        payload = json.loads(artifacts[0].read_text())
        assert payload["overload_seed"] == 9
        assert "overload_round(9)" in payload["replay"]

    def test_repro_defaults_to_the_testkit_dir(self, tmp_path, monkeypatch):
        import repro.testkit.overload as mod

        def exploding_round(seed, config=None):
            raise AssertionError("synthetic gate failure")

        monkeypatch.setattr(mod, "overload_round", exploding_round)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("OVERLOAD_REPRO_DIR", raising=False)
        with pytest.raises(AssertionError, match="repro"):
            mod.overload_soak(seed=4, rounds=1)
        assert [p.relative_to(tmp_path).as_posix()
                for p in tmp_path.rglob("*.json")] == [
            ".testkit-repro/overload-seed4-round0.json"]
