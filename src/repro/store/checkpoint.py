"""Crash-safe team checkpoints with bit-exact training resume.

A :class:`TeamCheckpoint` captures *everything* Algorithm 1 threads from
one batch to the next — not just expert weights:

* every expert's state dict (stored as the self-describing
  :func:`repro.nn.serialize.model_to_bytes` archive, so the same blob is
  reusable as the wire format when the master redeploys an expert);
* every expert optimizer's momentum velocity;
* the gate's persistent state: the meta-estimator network, its Adam
  moments/step, and the gate RNG (``Theta`` restarts per batch from that
  RNG, so the RNG state *is* the gate-network state between batches);
* the trainer RNG (drives the per-epoch shuffles) and the convergence
  monitor's recorded partition history;
* the epoch / iteration counters and the full :class:`TrainerConfig`.

Restoring all of it makes ``TeamNetTrainer.resume`` continue training
**bit-identically** to a run that never stopped — the property the
testkit's differential checker asserts.  Persistence goes through
:class:`~repro.store.artifact.ArtifactStore`, so a checkpoint interrupted
by a crash is never visible and a corrupted one is rejected by checksum
with automatic fallback to the previous generation.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from ..nn.models import ArchitectureSpec
from ..nn.serialize import (model_from_bytes, model_to_bytes,
                            weights_fingerprint)
from .artifact import ArtifactStore

__all__ = ["CheckpointStore", "TeamCheckpoint", "RosterSnapshot",
           "expert_entry_name"]

CHECKPOINT_SCHEMA = 1
_STATE_ENTRY = "training_state.json"


def expert_entry_name(index: int) -> str:
    """Store entry holding expert ``index``'s model archive."""
    return f"expert_{index}.model.npz"


def _arrays_to_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _bytes_to_arrays(blob: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(blob)) as archive:
        return {name: archive[name] for name in archive.files}


def _indexed(arrays: list[np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    return {f"{prefix}{i:04d}": np.asarray(a) for i, a in enumerate(arrays)}

def _unindexed(arrays: dict[str, np.ndarray], prefix: str
               ) -> list[np.ndarray]:
    keys = sorted(k for k in arrays if k.startswith(prefix))
    return [np.array(arrays[k], copy=True) for k in keys]


@dataclass
class TeamCheckpoint:
    """One fully-validated generation of training state, decoded."""

    generation: int
    epoch: int
    step: int
    spec: ArchitectureSpec
    config: dict
    expert_blobs: list[bytes]
    optimizer_velocities: list[list[np.ndarray]]
    gate_meta_state: dict[str, np.ndarray]
    gate_meta_moments: tuple[list[np.ndarray], list[np.ndarray], int]
    gate_rng_state: dict
    trainer_rng_state: dict
    set_points: np.ndarray
    monitor_history: np.ndarray
    monitor_objectives: np.ndarray

    @property
    def num_experts(self) -> int:
        return len(self.expert_blobs)

    def build_experts(self) -> list:
        """Reconstruct every expert model from its stored archive."""
        return [model_from_bytes(blob)[0] for blob in self.expert_blobs]

    def apply(self, trainer) -> None:
        """Load this checkpoint into ``trainer`` (in place, bit-exact).

        After this call the trainer is indistinguishable from one that
        trained straight through to ``epoch``/``step`` without stopping.
        """
        if len(trainer.experts) != self.num_experts:
            raise ValueError(
                f"checkpoint holds {self.num_experts} experts, trainer has "
                f"{len(trainer.experts)}")
        for expert, blob in zip(trainer.experts, self.expert_blobs):
            model, _ = model_from_bytes(blob)
            expert.load_state_dict(model.state_dict())
        for optimizer, velocities in zip(trainer.optimizers,
                                         self.optimizer_velocities):
            if len(velocities) != len(optimizer._velocity):
                raise ValueError("optimizer velocity count mismatch")
            optimizer._velocity = [np.array(v, copy=True)
                                   for v in velocities]
        gate = trainer.gate
        gate.meta.load_state_dict(self.gate_meta_state)
        m, v, t = self.gate_meta_moments
        gate._meta_opt._m = [np.array(a, copy=True) for a in m]
        gate._meta_opt._v = [np.array(a, copy=True) for a in v]
        gate._meta_opt._t = t
        gate.rng.bit_generator.state = self.gate_rng_state
        gate.set_points = np.array(self.set_points, copy=True)
        trainer.rng.bit_generator.state = self.trainer_rng_state
        trainer.monitor.set_points = np.array(self.set_points, copy=True)
        trainer.monitor._history = [row.copy()
                                    for row in self.monitor_history]
        trainer.monitor._objectives = [float(o)
                                       for o in self.monitor_objectives]
        trainer._iteration = self.step
        trainer._epoch = self.epoch


@dataclass(frozen=True)
class RosterSnapshot:
    """The persisted leadership/roster state a standby hydrates from."""

    roster: dict[int, tuple[str, int]]
    epoch: int
    leader: str | None
    version: int


class CheckpointStore:
    """Durable home for :class:`TeamCheckpoint` generations.

    A thin typed layer over :class:`~repro.store.artifact.ArtifactStore`:
    ``save`` snapshots a live ``TeamNetTrainer`` atomically, ``load``
    returns the newest checkpoint that validates (falling back past any
    corrupted generation), and ``expert_bytes`` hands the master a
    ready-to-push wire blob for :meth:`TeamNetMaster.redeploy`.

    The master-failover layer additionally persists the live *worker
    roster* here (``save_roster``/``load_roster``) in a nested store
    under ``root/roster`` — nested because roster deltas churn on every
    redeploy and must not rotate training checkpoints out of retention.
    """

    def __init__(self, root, retain: int = 3, fsync: bool = True, hook=None):
        self.store = ArtifactStore(root, retain=retain, fsync=fsync,
                                   hook=hook)
        self._roster_store: ArtifactStore | None = None
        self._canary_store: ArtifactStore | None = None

    @property
    def root(self):
        return self.store.root

    # --------------------------------------------------------------- save
    def save(self, trainer, spec: ArchitectureSpec,
             meta: dict | None = None, quantize_experts: bool = False) -> int:
        """Snapshot ``trainer`` as a new generation; returns its id.

        Only *reads* trainer state (no RNG draws), so saving never
        perturbs the training trajectory.  ``quantize_experts`` stores
        expert archives as int8 (~4x smaller); it defaults to off because
        quantization is lossy and bit-exact training resume depends on
        float archives.
        """
        entries: dict[str, bytes] = {}
        for i, expert in enumerate(trainer.experts):
            entries[expert_entry_name(i)] = model_to_bytes(
                expert, spec, quantize=quantize_experts)
        for i, optimizer in enumerate(trainer.optimizers):
            entries[f"optim_{i}.npz"] = _arrays_to_bytes(
                _indexed(optimizer._velocity, "velocity_"))
        gate = trainer.gate
        entries["gate_meta.npz"] = _arrays_to_bytes(gate.meta.state_dict())
        entries["gate_meta_opt.npz"] = _arrays_to_bytes({
            **_indexed(gate._meta_opt._m, "m_"),
            **_indexed(gate._meta_opt._v, "v_")})
        entries["monitor.npz"] = _arrays_to_bytes({
            "history": trainer.monitor.history(),
            "objectives": trainer.monitor.objectives(),
            "set_points": np.asarray(gate.set_points)})
        state = {
            "schema": CHECKPOINT_SCHEMA,
            "epoch": trainer.completed_epochs,
            "step": trainer._iteration,
            "num_experts": len(trainer.experts),
            "spec": asdict(spec),
            "config": asdict(trainer.config),
            "trainer_rng": trainer.rng.bit_generator.state,
            "gate_rng": gate.rng.bit_generator.state,
            "meta_opt_t": gate._meta_opt._t,
        }
        entries[_STATE_ENTRY] = json.dumps(state, indent=2).encode("utf-8")
        store_meta = {"kind": "team-checkpoint",
                      "epoch": state["epoch"], "step": state["step"],
                      "num_experts": state["num_experts"],
                      "spec_name": spec.name}
        if meta:
            store_meta.update(meta)
        return self.store.write_generation(entries, store_meta)

    def save_experts(self, experts, spec: ArchitectureSpec,
                     meta: dict | None = None,
                     quantize_experts: bool = False) -> int:
        """Snapshot a serving team's expert archives (no trainer state).

        Serving/integrity deployments have experts but no live trainer;
        this writes a generation holding only the ``expert_<i>.model.npz``
        entries, which is everything :meth:`expert_bytes` /
        :meth:`load_expert` / :meth:`expert_fingerprint` (and therefore
        redeploy and worker restart) need.  ``load()`` does *not* apply
        to such generations — there is no training state to decode.
        """
        entries = {expert_entry_name(i): model_to_bytes(
                       expert, spec, quantize=quantize_experts)
                   for i, expert in enumerate(experts)}
        store_meta = {"kind": "expert-team", "num_experts": len(entries),
                      "spec_name": spec.name}
        if meta:
            store_meta.update(meta)
        return self.store.write_generation(entries, store_meta)

    # --------------------------------------------------------------- load
    def load(self, generation: int | None = None) -> TeamCheckpoint:
        """Decode a checkpoint (default: newest valid generation)."""
        entries, manifest = self.store.read_generation(generation)
        state = json.loads(entries[_STATE_ENTRY].decode("utf-8"))
        if state.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {state.get('schema')!r}")
        num_experts = state["num_experts"]
        spec_fields = dict(state["spec"])
        spec_fields["in_shape"] = tuple(spec_fields["in_shape"])
        meta_opt = _bytes_to_arrays(entries["gate_meta_opt.npz"])
        monitor = _bytes_to_arrays(entries["monitor.npz"])
        return TeamCheckpoint(
            generation=manifest["generation"],
            epoch=state["epoch"], step=state["step"],
            spec=ArchitectureSpec(**spec_fields),
            config=state["config"],
            expert_blobs=[entries[expert_entry_name(i)]
                          for i in range(num_experts)],
            optimizer_velocities=[
                _unindexed(_bytes_to_arrays(entries[f"optim_{i}.npz"]),
                           "velocity_")
                for i in range(num_experts)],
            gate_meta_state=_bytes_to_arrays(entries["gate_meta.npz"]),
            gate_meta_moments=(_unindexed(meta_opt, "m_"),
                               _unindexed(meta_opt, "v_"),
                               int(state["meta_opt_t"])),
            gate_rng_state=state["gate_rng"],
            trainer_rng_state=state["trainer_rng"],
            set_points=np.array(monitor["set_points"], copy=True),
            monitor_history=np.array(monitor["history"], copy=True),
            monitor_objectives=np.array(monitor["objectives"], copy=True))

    def restore(self, trainer, generation: int | None = None
                ) -> TeamCheckpoint:
        """Load a checkpoint into an existing trainer; returns it."""
        checkpoint = self.load(generation)
        checkpoint.apply(trainer)
        return checkpoint

    # ------------------------------------------------------------ redeploy
    def expert_bytes(self, index: int,
                     generation: int | None = None) -> bytes:
        """The stored wire archive of expert ``index`` (0 = master's)."""
        return self.store.read_entry(expert_entry_name(index), generation)

    def load_expert(self, index: int, generation: int | None = None):
        """Rebuild one expert model from the store: ``(model, spec)``."""
        return model_from_bytes(self.expert_bytes(index, generation))

    def expert_fingerprint(self, index: int,
                           generation: int | None = None) -> str:
        """The weights fingerprint of a stored expert — the model
        version the integrity layer expects that slot's replies to be
        stamped with (:mod:`repro.distributed.integrity`).  Computed
        from the archive's decoded state, so it matches what a worker
        that loaded this archive will stamp."""
        model, _ = self.load_expert(index, generation)
        return weights_fingerprint(model)

    # -------------------------------------------------------------- canary
    def _canaries(self) -> ArtifactStore:
        if self._canary_store is None:
            self._canary_store = ArtifactStore(
                self.store.root / "canary", retain=self.store.retain,
                fsync=self.store.fsync)
        return self._canary_store

    def save_canary(self, canaries) -> int:
        """Persist a :class:`~repro.distributed.integrity.CanarySet`
        (inputs + per-expert golden outputs) next to the checkpoints.

        Nested under ``root/canary`` like the roster store: canary sets
        are rewritten at every deploy and must not rotate training
        checkpoints out of retention.  Returns the generation id.
        """
        return self._canaries().write_generation(
            {"canary.npz": _arrays_to_bytes(canaries.to_arrays())},
            {"kind": "canary-set",
             "num_experts": len(canaries.golden),
             "rows": int(np.asarray(canaries.x).shape[0])})

    def load_canary(self, dtype=None):
        """The newest valid persisted canary set, or None if none exists;
        ``dtype`` (the team's) casts its probe batch."""
        from ..distributed.integrity import CanarySet  # local: avoid cycle
        from .artifact import NoValidGenerationError
        try:
            entries, _ = self._canaries().read_generation()
        except NoValidGenerationError:
            return None
        return CanarySet.from_arrays(_bytes_to_arrays(entries["canary.npz"]),
                                     dtype=dtype)

    # -------------------------------------------------------------- roster
    def _rosters(self) -> ArtifactStore:
        if self._roster_store is None:
            self._roster_store = ArtifactStore(
                self.store.root / "roster", retain=self.store.retain,
                fsync=self.store.fsync)
        return self._roster_store

    def save_roster(self, roster: dict[int, tuple[str, int]],
                    epoch: int = 0, leader: str | None = None) -> int:
        """Persist the live worker roster (+ leadership identity) as a
        new roster generation; returns its id, which doubles as the
        snapshot ``version`` (generations are monotonic)."""
        rosters = self._rosters()
        known = rosters.generations()
        version = (known[-1] + 1) if known else 1  # = the new generation id
        blob = json.dumps({
            "roster": [[int(i), str(h), int(p)]
                       for i, (h, p) in sorted(roster.items())],
            "epoch": int(epoch), "leader": leader, "version": version,
        }, indent=2).encode("utf-8")
        return rosters.write_generation(
            {"roster.json": blob},
            {"kind": "team-roster", "epoch": int(epoch), "leader": leader})

    def load_roster(self) -> RosterSnapshot | None:
        """The newest valid persisted roster, or None if none exists."""
        from .artifact import NoValidGenerationError  # local: avoid cycle
        try:
            entries, _ = self._rosters().read_generation()
        except NoValidGenerationError:
            return None
        state = json.loads(entries["roster.json"].decode("utf-8"))
        return RosterSnapshot(
            roster={int(i): (str(h), int(p))
                    for i, h, p in state.get("roster", [])},
            epoch=int(state.get("epoch", 0)),
            leader=state.get("leader"),
            version=int(state.get("version", 0)))

    # ------------------------------------------------------------- tooling
    def generations(self) -> list[int]:
        return self.store.generations()

    def latest_valid(self) -> int | None:
        return self.store.latest_valid()

    def inspect(self) -> list[dict]:
        return self.store.inspect()
