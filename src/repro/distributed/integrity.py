"""Data-plane integrity: validate, fence, probe, quarantine.

The crash-fault machinery (breakers, suspicion, failover) assumes a
broken worker goes *quiet*.  The arg-min predictive-entropy gate has the
opposite failure mode: a worker with silently corrupted state — flipped
weight bits, a stale model after a redeploy, a wire payload tampered in
transit — can emit a spuriously confident low-entropy distribution and
therefore **always win the gate**.  This module is the master-side
defense, four layers deep:

* :class:`ReplyValidator` — every gather reply is checked *before* the
  gate sees it: finite values, normalized simplex rows, shape/dtype
  structure, and **entropy consistency** (recompute the entropy from the
  returned distribution; disagreement with the claimed value means the
  payload was not produced by one honest forward pass).
* **Model-version fencing** — workers stamp each reply with a SHA-256
  weights fingerprint (:func:`repro.nn.serialize.weights_fingerprint`)
  taken when the expert was installed; the master rejects replies whose
  stamp disagrees with the roster's expected version.  This catches the
  redeploy-then-stale-worker-reconnect race: a pre-redeploy worker
  rejoining with its old expert answers with the old fingerprint and is
  fenced instead of silently rejoining the team.
* :class:`CanaryProber` — periodic known-answer probes from a small
  canary input set whose golden outputs were recorded at deploy time
  (and persisted alongside checkpoints).  Canaries catch what validation
  cannot: corruption that still yields a well-formed, self-consistent
  distribution (the stamp is cached at install time, so live bit-flips
  keep a *matching* version tag — only a wrong answer betrays them).
* :class:`QuarantineManager` — a validation failure or canary mismatch
  quarantines the slot: excluded from broadcasts (and thus from the gate
  and quorum credit), still canary-probed, auto-redeployed from the
  checkpoint store, and readmitted only after ``readmit_passes``
  *consecutive* canary passes.

Everything here is runtime-agnostic (no sockets, no threads beyond a
lock); :mod:`repro.distributed.teamnet_runtime` wires it into the
gather/heartbeat loop, and the seeded corruption soak
(:mod:`repro.testkit.integrity`) proves the protected team converges
back to byte-identical answers while an unprotected one keeps serving
wrong ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.entropy import entropy_from_probs
from ..core.inference import ExpertOutput, expert_forward, team_dtype

__all__ = ["IntegrityConfig", "IntegrityViolation", "ReplyValidator",
           "CanarySet", "make_canary_set", "CanaryProber",
           "QuarantineManager", "QuarantineRecord", "structural_reason"]


class IntegrityViolation(ConnectionError):
    """A reply failed data-plane validation (malformed payload, broken
    simplex, inconsistent entropy, or a model-version mismatch).

    A ``ConnectionError`` subclass so the gather's existing failure
    bookkeeping applies — the reply is booked as a failure and excluded
    from the gate — but distinguishable from transport faults, because
    the *connection* is fine: it is the data that lies.  The integrity
    layer additionally quarantines the slot instead of merely closing
    the socket (reconnecting to a corrupted expert fixes nothing)."""


def structural_reason(probs, entropy, rows: int) -> str | None:
    """Cheap always-on shape/dtype checks for one RESULT payload.

    Returns a human-readable reason when the payload cannot possibly be
    ``rows`` probability rows plus their entropies, else None.  This
    runs even without an :class:`IntegrityConfig`: a garbage payload
    must surface as a typed failure, never as a raw numpy error from
    inside the gate's ``np.stack``.
    """
    if probs is None or entropy is None:
        return "reply is missing its probs/entropy arrays"
    if probs.ndim != 2:
        return f"probs must be 2-D (rows, classes), got shape {probs.shape}"
    if entropy.ndim != 1:
        return f"entropy must be 1-D, got shape {entropy.shape}"
    if probs.dtype.kind != "f" or entropy.dtype.kind != "f":
        return (f"probs/entropy must be float arrays, got "
                f"{probs.dtype}/{entropy.dtype}")
    if probs.shape[0] != rows or entropy.shape[0] != rows:
        return (f"expected {rows} rows, got probs {probs.shape[0]} / "
                f"entropy {entropy.shape[0]}")
    if probs.shape[1] < 1:
        return "probs has zero classes"
    return None


@dataclass(frozen=True)
class IntegrityConfig:
    """Tuning knobs for the data-plane integrity layer.

    * ``simplex_atol`` — tolerance on each probability row's sum vs 1
      (and on negative entries); wire floats are exact, so this only
      needs to absorb the worker's own softmax arithmetic.
    * ``entropy_atol`` / ``entropy_rtol`` — tolerance when comparing the
      claimed entropy to one recomputed from the returned distribution.
    * ``canary_atol`` — absolute tolerance for known-answer probes; the
      golden outputs were computed by the same engine on the same
      weights, so this is essentially a bit-exactness check.
    * ``probe_every`` — canary probes piggyback on every Nth heartbeat
      (1 = every heartbeat).  Counter-based, not clock-based, so probe
      cadence is deterministic on the testkit's virtual clock.
    * ``readmit_passes`` — consecutive canary passes required before a
      quarantined slot rejoins the gate.
    * ``auto_redeploy`` — push the stored expert archive back to a
      quarantined worker automatically (needs a checkpoint store).
    * ``pin_first_version`` — with no expected version on record for a
      slot, pin the first stamped version seen on a *valid* reply
      (trust-on-first-use); later mismatches are then fenced.
    """

    simplex_atol: float = 1e-5
    entropy_atol: float = 1e-5
    entropy_rtol: float = 1e-5
    canary_atol: float = 1e-6
    probe_every: int = 1
    readmit_passes: int = 2
    auto_redeploy: bool = True
    pin_first_version: bool = True

    def __post_init__(self):
        for name in ("simplex_atol", "entropy_atol", "entropy_rtol",
                     "canary_atol"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.probe_every < 1:
            raise ValueError("probe_every must be >= 1")
        if self.readmit_passes < 1:
            raise ValueError("readmit_passes must be >= 1")


class ReplyValidator:
    """Validate one gather reply before the gate may read it.

    ``validate`` returns a reason string (the reply is invalid) or None
    (trustworthy).  Checks are ordered cheap-to-expensive and stop at
    the first failure; the version fence runs first because a stale
    expert's output can be perfectly well-formed.
    """

    def __init__(self, config: IntegrityConfig | None = None):
        self.config = config if config is not None else IntegrityConfig()

    def validate(self, probs: np.ndarray, entropy: np.ndarray, rows: int,
                 claimed_version: str | None = None,
                 expected_version: str | None = None) -> str | None:
        reason = structural_reason(probs, entropy, rows)
        if reason is not None:
            return reason
        cfg = self.config
        if expected_version is not None and claimed_version != expected_version:
            return (f"model version mismatch: reply stamped "
                    f"{_short(claimed_version)}, roster expects "
                    f"{_short(expected_version)}")
        if not np.isfinite(probs).all():
            return "probs contain NaN/inf"
        if not np.isfinite(entropy).all():
            return "entropy contains NaN/inf"
        if (probs < -cfg.simplex_atol).any():
            return f"probs contain negative entries (min {probs.min():.3e})"
        sums = probs.sum(axis=-1)
        dev = float(np.abs(sums - 1.0).max())
        if dev > cfg.simplex_atol:
            return (f"probability rows are not normalized "
                    f"(max |sum - 1| = {dev:.3e})")
        recomputed = entropy_from_probs(np.clip(probs, 0.0, None))
        if not np.allclose(entropy, recomputed, rtol=cfg.entropy_rtol,
                           atol=cfg.entropy_atol):
            gap = float(np.abs(entropy - recomputed).max())
            return (f"claimed entropy inconsistent with the returned "
                    f"distribution (max gap {gap:.3e})")
        return None


def _short(version: str | None) -> str:
    if version is None:
        return "<unstamped>"
    return version[:12]


@dataclass
class CanarySet:
    """A small known-answer input batch plus per-expert golden outputs.

    ``golden`` maps team index (0 = master's expert) to the
    :class:`~repro.core.inference.ExpertOutput` recorded at deploy time.
    The whole set round-trips through flat arrays (``to_arrays`` /
    ``from_arrays``) so :class:`~repro.store.CheckpointStore` can
    persist it alongside the expert archives it vouches for.
    """

    x: np.ndarray
    golden: dict[int, ExpertOutput] = field(default_factory=dict)

    def to_arrays(self) -> dict[str, np.ndarray]:
        arrays = {"x": np.asarray(self.x)}
        for index, output in self.golden.items():
            arrays[f"probs_{index}"] = np.asarray(output.probs)
            arrays[f"entropy_{index}"] = np.asarray(output.entropy)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray],
                    dtype=None) -> "CanarySet":
        """Inverse of :meth:`to_arrays`.  ``dtype`` (the team's) casts
        the probe batch: archives written before inputs were cast at the
        team boundary hold it in the caller's dtype, which workers now
        refuse."""
        golden = {}
        for name in arrays:
            if name.startswith("probs_"):
                index = int(name[len("probs_"):])
                golden[index] = ExpertOutput(
                    probs=np.asarray(arrays[name]),
                    entropy=np.asarray(arrays[f"entropy_{index}"]))
        return cls(x=np.asarray(arrays["x"], dtype=dtype), golden=golden)


def make_canary_set(experts, x: np.ndarray,
                    engine: str = "tape") -> CanarySet:
    """Record golden outputs for every expert on the canary batch ``x``.

    Run at deploy time, on the exact weights being deployed, with the
    team's serving engine — the golden outputs must be what an honest
    worker will compute, bit for bit.  ``x`` is stored in the team dtype,
    the only dtype a worker accepts.
    """
    x = np.asarray(x, dtype=team_dtype(experts))
    golden = {index: expert_forward(expert, x, engine=engine)
              for index, expert in enumerate(experts)}
    return CanarySet(x=x, golden=golden)


class CanaryProber:
    """Evaluates known-answer probe replies against the golden outputs.

    The prober holds no sockets: the master broadcasts the canary batch
    (a ``CANARY`` message, answered like an INFER) on the heartbeat
    cadence and feeds each reply to :meth:`evaluate`, which returns a
    failure reason or None.  ``due()`` is the counter that makes probes
    fire every ``probe_every`` heartbeats, deterministically.
    """

    def __init__(self, config: IntegrityConfig, canaries: CanarySet):
        self.config = config
        self.canaries = canaries
        self._beats = 0

    def due(self) -> bool:
        """Advance the heartbeat counter; True when a probe should fire."""
        self._beats += 1
        return self._beats % self.config.probe_every == 0

    def evaluate(self, index: int, probs: np.ndarray, entropy: np.ndarray,
                 claimed_version: str | None = None,
                 expected_version: str | None = None) -> str | None:
        golden = self.canaries.golden.get(index)
        if golden is None:
            return None  # no golden recorded for this slot: nothing to judge
        rows = int(np.asarray(self.canaries.x).shape[0])
        reason = structural_reason(probs, entropy, rows)
        if reason is not None:
            return f"canary: {reason}"
        if (expected_version is not None
                and claimed_version != expected_version):
            return (f"canary: model version mismatch "
                    f"({_short(claimed_version)} != "
                    f"{_short(expected_version)})")
        if probs.shape != golden.probs.shape:
            return (f"canary: probs shape {probs.shape} != golden "
                    f"{golden.probs.shape}")
        atol = self.config.canary_atol
        if not np.allclose(probs, golden.probs, rtol=0.0, atol=atol,
                           equal_nan=False):
            gap = float(np.nanmax(np.abs(probs - golden.probs))) \
                if np.isfinite(probs).all() else float("inf")
            return f"canary: probs deviate from golden (max gap {gap:.3e})"
        if not np.allclose(entropy, golden.entropy, rtol=0.0, atol=atol,
                           equal_nan=False):
            return "canary: entropy deviates from golden"
        return None


@dataclass
class QuarantineRecord:
    """Cumulative integrity bookkeeping for one worker slot."""

    quarantined: bool = False
    reason: str | None = None
    quarantines: int = 0
    consecutive_passes: int = 0
    canary_failures: int = 0
    invalid_replies: int = 0
    readmissions: int = 0
    redeploys: int = 0


class QuarantineManager:
    """The quarantine state machine, one record per worker slot.

    healthy --(invalid reply | canary mismatch)--> quarantined
    quarantined --(``readmit_passes`` consecutive canary passes)--> healthy

    A quarantined slot is excluded from broadcasts (no gate, no quorum
    credit) but keeps receiving canary probes — that is its only road
    back.  Any failure while quarantined resets the pass streak.
    Thread-safe: gathers and heartbeats feed it concurrently.
    """

    def __init__(self, readmit_passes: int = 2):
        if readmit_passes < 1:
            raise ValueError("readmit_passes must be >= 1")
        self.readmit_passes = readmit_passes
        self._lock = threading.Lock()
        self._records: dict[int, QuarantineRecord] = {}

    def _record(self, index: int) -> QuarantineRecord:
        record = self._records.get(index)
        if record is None:
            record = self._records[index] = QuarantineRecord()
        return record

    def is_quarantined(self, index: int) -> bool:
        with self._lock:
            record = self._records.get(index)
            return record is not None and record.quarantined

    def quarantined(self) -> list[int]:
        """Slots currently under quarantine, sorted."""
        with self._lock:
            return sorted(i for i, r in self._records.items()
                          if r.quarantined)

    def record_invalid(self, index: int, reason: str) -> bool:
        """An inference reply failed validation; True if newly quarantined."""
        with self._lock:
            record = self._record(index)
            record.invalid_replies += 1
            return self._quarantine(record, reason)

    def record_canary_failure(self, index: int, reason: str) -> bool:
        """A canary probe failed; True if newly quarantined."""
        with self._lock:
            record = self._record(index)
            record.canary_failures += 1
            return self._quarantine(record, reason)

    def record_canary_pass(self, index: int) -> bool:
        """A canary probe passed; True if the slot was readmitted now."""
        with self._lock:
            record = self._record(index)
            if not record.quarantined:
                return False
            record.consecutive_passes += 1
            if record.consecutive_passes < self.readmit_passes:
                return False
            record.quarantined = False
            record.reason = None
            record.consecutive_passes = 0
            record.readmissions += 1
            return True

    def note_redeploy(self, index: int) -> None:
        """An auto-redeploy was pushed to this slot (bookkeeping only —
        readmission still requires canary passes on the new weights)."""
        with self._lock:
            self._record(index).redeploys += 1

    def _quarantine(self, record: QuarantineRecord, reason: str) -> bool:
        """Caller holds the lock."""
        record.consecutive_passes = 0
        if record.quarantined:
            return False
        record.quarantined = True
        record.reason = reason
        record.quarantines += 1
        return True

    def snapshot(self, index: int) -> QuarantineRecord:
        """A copy of one slot's record (all-zero for untouched slots)."""
        with self._lock:
            record = self._records.get(index)
            if record is None:
                return QuarantineRecord()
            return replace(record)
