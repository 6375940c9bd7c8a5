"""Tests for the data-plane integrity layer (validator, version fence,
canary probes, quarantine) — units plus the full runtime wiring over the
simulated fabric."""

import copy
import threading

import numpy as np
import pytest

from repro.comm import protocol
from repro.distributed import (CanaryProber, CanarySet, DegradationPolicy,
                               IntegrityConfig, QuarantineManager,
                               ReplyValidator, WorkerFailure, make_canary_set,
                               structural_reason)
from repro.core.entropy import entropy_from_probs
from repro.nn import MLP, weights_fingerprint
from repro.testkit import SimCluster, sharpen_expert
from repro.testkit.sim_transport import SimNetwork

FEATURES, CLASSES = 6, 3


def _experts(n=3, seed=0):
    return [MLP(FEATURES, CLASSES, depth=1, width=5,
                rng=np.random.default_rng((seed, i))) for i in range(n)]


def _honest_reply(rng, rows=4):
    logits = rng.standard_normal((rows, CLASSES))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=-1, keepdims=True)
    return probs, entropy_from_probs(probs)


class TestStructuralReason:
    def test_valid_payload_passes(self, rng):
        probs, entropy = _honest_reply(rng)
        assert structural_reason(probs, entropy, 4) is None

    def test_missing_arrays(self):
        assert "missing" in structural_reason(None, np.zeros(2), 2)
        assert "missing" in structural_reason(np.zeros((2, 3)), None, 2)

    def test_wrong_rank(self, rng):
        probs, entropy = _honest_reply(rng)
        assert "2-D" in structural_reason(probs[0], entropy, 4)
        assert "1-D" in structural_reason(probs, entropy[:, None], 4)

    def test_wrong_row_count(self, rng):
        probs, entropy = _honest_reply(rng, rows=4)
        assert "rows" in structural_reason(probs, entropy, 5)
        assert "rows" in structural_reason(probs[:3], entropy, 4)

    def test_non_float_dtype(self):
        probs = np.ones((2, 3), dtype=np.int64)
        assert "float" in structural_reason(probs, np.zeros(2), 2)


class TestReplyValidator:
    def setup_method(self):
        self.validator = ReplyValidator(IntegrityConfig())
        self.rng = np.random.default_rng(7)

    def test_honest_reply_passes(self):
        probs, entropy = _honest_reply(self.rng)
        assert self.validator.validate(probs, entropy, 4) is None

    def test_version_fence(self):
        probs, entropy = _honest_reply(self.rng)
        reason = self.validator.validate(probs, entropy, 4,
                                         claimed_version="a" * 64,
                                         expected_version="b" * 64)
        assert "version mismatch" in reason

    def test_unstamped_reply_fenced_when_version_expected(self):
        probs, entropy = _honest_reply(self.rng)
        reason = self.validator.validate(probs, entropy, 4,
                                         claimed_version=None,
                                         expected_version="b" * 64)
        assert "version mismatch" in reason and "<unstamped>" in reason

    def test_nan_probs_rejected(self):
        probs, entropy = _honest_reply(self.rng)
        probs[0, 0] = np.nan
        assert "NaN" in self.validator.validate(probs, entropy, 4)

    def test_negative_probs_rejected(self):
        probs, entropy = _honest_reply(self.rng)
        probs[1] = [-0.1, 0.6, 0.5]  # sums to 1: isolate the sign check
        reason = self.validator.validate(probs, entropy, 4)
        assert "negative" in reason

    def test_unnormalized_rows_rejected(self):
        probs, entropy = _honest_reply(self.rng)
        probs[2] *= 1.5
        assert "normalized" in self.validator.validate(probs, entropy, 4)

    def test_inconsistent_entropy_rejected(self):
        # A forged low entropy (the gate-winning lie) must be caught by
        # the recompute even when the distribution itself is well-formed.
        probs, entropy = _honest_reply(self.rng)
        entropy = entropy * 0.0
        reason = self.validator.validate(probs, entropy, 4)
        assert "inconsistent" in reason


class TestIntegrityConfig:
    def test_validates_tolerances(self):
        with pytest.raises(ValueError):
            IntegrityConfig(simplex_atol=-1.0)
        with pytest.raises(ValueError):
            IntegrityConfig(probe_every=0)
        with pytest.raises(ValueError):
            IntegrityConfig(readmit_passes=0)


class TestCanaryProber:
    def _prober(self, probe_every=1):
        experts = _experts(2)
        x = np.random.default_rng(3).standard_normal((3, FEATURES))
        canaries = make_canary_set(experts, x)
        return CanaryProber(IntegrityConfig(probe_every=probe_every),
                            canaries), canaries

    def test_due_cadence(self):
        prober, _ = self._prober(probe_every=3)
        fired = [prober.due() for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_golden_reply_passes(self):
        prober, canaries = self._prober()
        golden = canaries.golden[1]
        assert prober.evaluate(1, golden.probs, golden.entropy) is None

    def test_deviating_reply_fails(self):
        prober, canaries = self._prober()
        golden = canaries.golden[1]
        probs = golden.probs.copy()
        probs[0, 0] += 1e-3
        assert "deviate" in prober.evaluate(1, probs, golden.entropy)

    def test_version_mismatch_fails(self):
        prober, canaries = self._prober()
        golden = canaries.golden[1]
        reason = prober.evaluate(1, golden.probs, golden.entropy,
                                 claimed_version="old",
                                 expected_version="new")
        assert "version mismatch" in reason

    def test_unknown_slot_is_not_judged(self):
        prober, _ = self._prober()
        assert prober.evaluate(99, np.zeros((3, 2)), np.zeros(3)) is None

    def test_roundtrip_through_arrays(self):
        _, canaries = self._prober()
        rebuilt = CanarySet.from_arrays(canaries.to_arrays())
        np.testing.assert_array_equal(rebuilt.x, canaries.x)
        assert set(rebuilt.golden) == set(canaries.golden)
        for i, out in canaries.golden.items():
            np.testing.assert_array_equal(rebuilt.golden[i].probs,
                                          out.probs)
            np.testing.assert_array_equal(rebuilt.golden[i].entropy,
                                          out.entropy)


class TestQuarantineManager:
    def test_invalid_reply_quarantines(self):
        q = QuarantineManager(readmit_passes=2)
        assert q.record_invalid(1, "bad") is True
        assert q.is_quarantined(1)
        assert q.record_invalid(1, "bad again") is False  # already in
        assert q.quarantined() == [1]

    def test_readmission_needs_consecutive_passes(self):
        q = QuarantineManager(readmit_passes=2)
        q.record_canary_failure(1, "deviates")
        assert q.record_canary_pass(1) is False
        q.record_canary_failure(1, "deviates")  # resets the streak
        assert q.record_canary_pass(1) is False
        assert q.record_canary_pass(1) is True
        assert not q.is_quarantined(1)
        record = q.snapshot(1)
        assert record.readmissions == 1
        # one quarantine *episode*: the second failure landed while
        # already benched, so it reset the streak without re-counting
        assert record.quarantines == 1
        assert record.canary_failures == 2

    def test_pass_on_healthy_slot_is_noop(self):
        q = QuarantineManager()
        assert q.record_canary_pass(3) is False
        assert q.snapshot(3).quarantined is False

    def test_snapshot_is_a_copy(self):
        q = QuarantineManager()
        q.record_invalid(1, "x")
        snap = q.snapshot(1)
        snap.quarantined = False
        assert q.is_quarantined(1)


def _evil_listener(network, reply_fn):
    """A protocol-speaking impostor worker: answers every INFER with
    whatever frame ``reply_fn(msg)`` fabricates."""
    listener = network.listen("sim", 0)

    def run():
        try:
            conn = listener.accept(timeout=5.0)
        except Exception:
            return
        while True:
            try:
                msg = protocol.decode(conn.recv(timeout=5.0))
            except Exception:
                return
            if msg.kind == protocol.SHUTDOWN:
                return
            payload = reply_fn(msg)
            if payload is not None:
                try:
                    conn.send(payload)
                except Exception:
                    return

    threading.Thread(target=run, daemon=True).start()
    return listener.address


class TestMalformedReplyGather:
    """Satellite (a): garbage RESULT payloads must surface as typed
    failures booked against the peer — never raw numpy errors escaping
    the gate's np.stack."""

    def _cluster_with_impostor(self, reply_fn, **kwargs):
        from repro.distributed.teamnet_runtime import (ExpertWorker,
                                                       TeamNetMaster)
        experts = _experts(2)
        network = SimNetwork()
        honest = ExpertWorker(experts[1], host="sim",
                              transport=network.transport)
        honest.start()
        evil = _evil_listener(network, reply_fn)
        master = TeamNetMaster(experts[0], [honest.address, evil],
                               transport=network.transport, **kwargs)
        return master, honest

    @staticmethod
    def _result(msg, probs, entropy):
        return protocol.encode(
            protocol.RESULT, {"seq": msg.meta.get("seq")},
            {"probs": probs, "entropy": entropy})

    def test_wrong_shape_degrades_not_crashes(self, rng):
        def reply(msg):
            rows = msg.arrays["x"].shape[0]
            probs = np.full((rows + 1, CLASSES), 1.0 / CLASSES)
            return self._result(msg, probs,
                                entropy_from_probs(probs))

        master, honest = self._cluster_with_impostor(
            reply, degradation=DegradationPolicy(min_quorum=1))
        try:
            x = rng.standard_normal((3, FEATURES))
            preds, winner, stats = master.infer(x)
            assert preds.shape == (3,)
            assert stats.participants == 2  # master + honest worker
            assert stats.invalid_replies == 1
            assert stats.failures == 1
        finally:
            master.close()
            honest.stop()

    def test_wrong_shape_raises_worker_failure_when_strict(self, rng):
        def reply(msg):
            return self._result(msg, np.ones((1, 1)), np.zeros(1))

        master, honest = self._cluster_with_impostor(
            reply, degradation=DegradationPolicy())
        try:
            with pytest.raises(WorkerFailure):
                master.infer(rng.standard_normal((3, FEATURES)))
        finally:
            master.close()
            honest.stop()

    def test_missing_arrays_degrade(self, rng):
        def reply(msg):
            return protocol.encode(protocol.RESULT,
                                   {"seq": msg.meta.get("seq")}, {})

        master, honest = self._cluster_with_impostor(
            reply, degradation=DegradationPolicy(min_quorum=1))
        try:
            _, _, stats = master.infer(rng.standard_normal((2, FEATURES)))
            assert stats.invalid_replies == 1
        finally:
            master.close()
            honest.stop()

    def test_integer_payload_degrades(self, rng):
        def reply(msg):
            rows = msg.arrays["x"].shape[0]
            return self._result(msg, np.ones((rows, CLASSES), dtype=np.int64),
                                np.zeros(rows, dtype=np.int64))

        master, honest = self._cluster_with_impostor(
            reply, degradation=DegradationPolicy(min_quorum=1))
        try:
            _, _, stats = master.infer(rng.standard_normal((2, FEATURES)))
            assert stats.invalid_replies == 1
        finally:
            master.close()
            honest.stop()

    def test_forged_low_entropy_rejected_by_validator(self, rng):
        """The headline attack: a well-formed distribution claiming zero
        entropy would always win the arg-min gate; the validator's
        recompute must throw it out."""
        def reply(msg):
            rows = msg.arrays["x"].shape[0]
            probs = np.full((rows, CLASSES), 1.0 / CLASSES)
            return self._result(msg, probs, np.zeros(rows))

        master, honest = self._cluster_with_impostor(
            reply, degradation=DegradationPolicy(min_quorum=1),
            integrity=IntegrityConfig())
        try:
            x = rng.standard_normal((3, FEATURES))
            preds, winner, stats = master.infer(x)
            assert stats.invalid_replies == 1
            assert 2 not in set(np.atleast_1d(winner).tolist())
            assert master.quarantine.is_quarantined(2)
        finally:
            master.close()
            honest.stop()


class TestStaleWorkerFence:
    """Satellite (c): the redeploy-then-stale-worker-reconnect race —
    a worker rejoining with its old expert is fenced by the version
    stamp on its *first* reply, quarantined, auto-repaired from the
    store, and readmitted running the right weights."""

    def test_stale_expert_fenced_on_first_gather(self, rng):
        experts = _experts(3, seed=11)
        stale = MLP(FEATURES, CLASSES, depth=1, width=5,
                    rng=np.random.default_rng((11, 99)))
        x = rng.standard_normal((4, FEATURES))
        with SimCluster([copy.deepcopy(e) for e in experts]) as ref:
            golden_preds, golden_winner, _ = ref.infer(x)
        canaries = make_canary_set(
            experts, rng.standard_normal((2, FEATURES)))
        with SimCluster(experts, integrity=IntegrityConfig(
                            auto_redeploy=False),
                        canaries=canaries) as cluster:
            preds, winner, stats = cluster.infer(x)
            np.testing.assert_array_equal(preds, golden_preds)
            cluster.swap_worker_expert(2, stale)
            # The first gather after the crash books a connection
            # failure and reconnects; the *reconnected* stale worker
            # then answers under its old fingerprint and is fenced.
            for _ in range(3):
                preds, winner, stats = cluster.infer(x)
                if stats.invalid_replies:
                    break
            # Fenced: the stale expert contributed nothing, and the
            # answer is still the gate over the surviving team.
            assert stats.invalid_replies == 1
            assert stats.participants == 2
            assert cluster.master.quarantine.is_quarantined(2)
            snap = cluster.master.resilience_snapshot()[2]
            assert snap.quarantined
            assert "version mismatch" in snap.quarantine_reason

    def test_fingerprint_tracks_weights(self):
        a, b = _experts(2, seed=5)
        assert weights_fingerprint(a) != weights_fingerprint(b)
        clone = copy.deepcopy(a)
        assert weights_fingerprint(a) == weights_fingerprint(clone)
        sharpen_expert(clone)
        assert weights_fingerprint(a) != weights_fingerprint(clone)


class TestQuarantineServing:
    def test_strict_mode_refuses_quarantined_team(self, rng):
        experts = _experts(3, seed=2)
        canaries = make_canary_set(
            experts, rng.standard_normal((2, FEATURES)))
        with SimCluster(experts, degradation=DegradationPolicy(),
                        integrity=IntegrityConfig(auto_redeploy=False),
                        canaries=canaries) as cluster:
            cluster.corrupt_worker(1, sharpen_expert)
            cluster.heartbeat()  # canary rides along, quarantines 1
            assert cluster.master.quarantine.is_quarantined(1)
            with pytest.raises(WorkerFailure, match="quarantined"):
                cluster.infer(rng.standard_normal((2, FEATURES)))

    def test_canary_probe_requires_prober(self, rng):
        with SimCluster(_experts(2)) as cluster:
            with pytest.raises(ValueError, match="canary"):
                cluster.master.canary_probe()

    def test_canary_traffic_metered_separately(self, rng):
        experts = _experts(3, seed=4)
        canaries = make_canary_set(
            experts, rng.standard_normal((2, FEATURES)))
        with SimCluster(experts, integrity=IntegrityConfig(),
                        canaries=canaries) as cluster:
            outcomes = cluster.master.canary_probe()
            assert outcomes == {1: "pass", 2: "pass"}
            assert cluster.master.canary_traffic.messages_sent == 2
            assert cluster.master.canary_traffic.messages_received == 2
            assert cluster.master.heartbeat_traffic.messages_sent == 0


class TestResilienceTableQuarantine:
    def test_quarantine_column_renders(self, rng):
        from repro.edge import resilience_table

        experts = _experts(3, seed=6)
        canaries = make_canary_set(
            experts, rng.standard_normal((2, FEATURES)))
        with SimCluster(experts, integrity=IntegrityConfig(
                            auto_redeploy=False),
                        canaries=canaries) as cluster:
            cluster.corrupt_worker(1, sharpen_expert)
            cluster.heartbeat()
            table = resilience_table(cluster.master.resilience_snapshot())
            assert "quar" in table and "invalid" in table
            row = [ln for ln in table.splitlines()
                   if ln.startswith("1 ")][0]
            assert "QUAR" in row

    def test_healthy_snapshot_renders_dashes(self, rng):
        from repro.edge import resilience_table

        with SimCluster(_experts(2, seed=6)) as cluster:
            cluster.infer(rng.standard_normal((2, FEATURES)))
            table = resilience_table(cluster.master.resilience_snapshot())
            assert "QUAR" not in table
