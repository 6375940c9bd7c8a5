"""Golden-trace differential checking: distributed vs single-process.

``core.inference.TeamInference`` is the functional reference; the
distributed runtime exists only to compute the *same function* over a
network.  The checker runs one input through both paths on a simulated
cluster and asserts the golden trace matches **byte for byte**:

* per-expert softmax probabilities and predictive entropies, as gathered
  by the master, against a local ``expert_forward`` of the same expert;
* the per-sample predictions of the arg-min gate;
* the per-sample winning expert indices (original team numbering).

Under faults, the comparison restricts the reference to the experts that
actually survived the gather (the master's ``last_participants``): a
degraded answer must still be exactly the arg-min over the survivors.

:func:`differential_sweep` drives hundreds of randomized
(input, fault-schedule) cases per seed, with zero real sockets (enforced
by :func:`~repro.testkit.guards.forbid_sockets`).  A failing case writes
a JSON repro artifact — ``(sweep seed, case index, schedule)`` pins the
whole run — which CI uploads and :func:`replay` re-executes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core.inference import TeamInference, argmin_select, validate_engine
from ..distributed.serving import TeamNetServer
from ..nn import Module
from . import strategies
from .cluster import SimCluster
from .crash import write_repro_artifact
from .faults import FaultSchedule
from .guards import forbid_sockets
from .sim_transport import SimNetwork

__all__ = ["DifferentialMismatch", "CaseReport", "run_differential_case",
           "run_serving_differential_case", "differential_sweep", "replay",
           "DEFAULT_REPRO_DIR"]

DEFAULT_REPRO_DIR = ".testkit-repro"


class DifferentialMismatch(AssertionError):
    """The distributed path diverged from the single-process reference."""


@dataclass
class CaseReport:
    """What one differential case observed (all checks passed)."""

    participants: list[int]
    failures: int
    connections: int

    @property
    def degraded(self) -> bool:
        return self.failures > 0


@dataclass
class SweepSummary:
    """Aggregate of one :func:`differential_sweep` run."""

    seed: int
    cases: int
    faulted_cases: int = 0
    degraded_cases: int = 0
    full_team_cases: int = 0
    participant_total: int = 0
    expert_total: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _assert_identical(name: str, got: np.ndarray, want: np.ndarray) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.dtype != want.dtype:
        raise DifferentialMismatch(
            f"{name}: dtype {got.dtype} != reference {want.dtype}")
    if got.shape != want.shape:
        raise DifferentialMismatch(
            f"{name}: shape {got.shape} != reference {want.shape}")
    if got.tobytes() != want.tobytes():
        raise DifferentialMismatch(f"{name}: bytes differ from reference")


def run_differential_case(experts: list[Module], x: np.ndarray,
                          schedule: FaultSchedule | None = None,
                          reply_timeout: float | None = 1.0) -> CaseReport:
    """Run one (input, schedule) case through both paths and compare.

    Returns a :class:`CaseReport` on success; raises
    :class:`DifferentialMismatch` on any byte-level divergence.
    """
    x = np.asarray(x)
    with SimCluster(experts, schedule, reply_timeout=reply_timeout) as cluster:
        preds, winner, stats = cluster.infer(x)
        participants = cluster.surviving_team
        gathered = {i: cluster.master.last_outputs[i] for i in participants}
        connections = cluster.network.connections_opened
    if not participants or participants[0] != 0:
        raise DifferentialMismatch(
            f"master (expert 0) missing from participants {participants}")
    # The golden trace: the single-process reference over the survivors.
    reference = TeamInference([experts[i] for i in participants])
    ref_outputs = reference.forward_all(x)
    for position, index in enumerate(participants):
        _assert_identical(f"expert {index} probs",
                          gathered[index].probs, ref_outputs[position].probs)
        _assert_identical(f"expert {index} entropy",
                          gathered[index].entropy,
                          ref_outputs[position].entropy)
    ref_preds, ref_local_winner = argmin_select(ref_outputs)
    ref_winner = np.asarray(participants)[ref_local_winner]
    _assert_identical("predictions", preds, ref_preds)
    _assert_identical("winner indices", winner, ref_winner)
    return CaseReport(participants=participants, failures=stats.failures,
                      connections=connections)


def run_serving_differential_case(experts: list[Module],
                                  requests: list[np.ndarray],
                                  max_batch: int = 8,
                                  reply_timeout: float | None = 1.0,
                                  coalesce: str = "exact",
                                  engine: str = "tape") -> int:
    """Serve ``requests`` through a coalescing :class:`TeamNetServer` and
    assert every answer matches a sequential ``master.infer`` of the same
    request on a fresh cluster.

    The requests are queued *before* the server starts, so the first
    dispatch deterministically coalesces ``min(len(requests),
    max_batch)`` of them into one broadcast — the comparison genuinely
    exercises the micro-batched wire path, not a degenerate
    one-request-per-batch run.  Returns the number of batches used.

    ``engine`` selects the *served* cluster's forward implementation; the
    sequential reference always runs on the tape.  Either way the
    comparison is byte-exact (the executor replays the MLP expert zoo
    byte-identically).
    """
    validate_engine(engine)
    requests = [np.asarray(x) for x in requests]
    with SimCluster(experts, reply_timeout=reply_timeout,
                    engine=engine) as cluster:
        server = TeamNetServer(cluster.master, max_batch=max_batch,
                               coalesce=coalesce)
        futures = [server.submit(x) for x in requests]
        server.start()
        try:
            served = [future.result(timeout=30.0) for future in futures]
            batches = server.stats().batches
        finally:
            server.close()
    with SimCluster(experts, reply_timeout=reply_timeout) as cluster:
        sequential = [cluster.master.infer(x) for x in requests]
    for i, ((got_preds, got_winner, _), (want_preds, want_winner, _)) \
            in enumerate(zip(served, sequential)):
        _assert_identical(f"request {i} predictions", got_preds, want_preds)
        _assert_identical(f"request {i} winner indices",
                          got_winner, want_winner)
    return batches


def _case_inputs(seed: int, index: int
                 ) -> tuple[list[Module], np.ndarray, FaultSchedule]:
    """Derive one sweep case deterministically from (seed, index).

    Worker addresses are knowable up front because each case gets a
    fresh :class:`SimNetwork`, which assigns ports sequentially from
    ``SimNetwork._FIRST_PORT`` in worker order.
    """
    rng = strategies.rng_from(seed, index)
    experts, x = strategies.expert_team(rng)
    addresses = [("sim", SimNetwork._FIRST_PORT + i)
                 for i in range(len(experts) - 1)]
    schedule = strategies.fault_schedule(rng, addresses)
    return experts, x, schedule


def _is_benign(schedule: FaultSchedule) -> bool:
    none = (schedule.request == schedule.reply ==
            type(schedule.request)())
    return none and not schedule.per_address


def _dump_repro(repro_dir: str | None, seed: int, index: int,
                schedule: FaultSchedule, error: Exception) -> str:
    return write_repro_artifact(
        f"differential-seed{seed}-case{index}.json", {
            "sweep_seed": seed,
            "case_index": index,
            "schedule": schedule.to_dict(),
            "error": str(error),
            "replay": "python -c 'from repro.testkit.differential import "
                      "replay; replay(\"<path of this file>\")'",
        }, repro_dir=repro_dir, env_var="TESTKIT_REPRO_DIR",
        default_dir=DEFAULT_REPRO_DIR)


def differential_sweep(seed: int = 0, cases: int = 200,
                       reply_timeout: float | None = 0.5,
                       repro_dir: str | None = None) -> SweepSummary:
    """Run ``cases`` randomized differential cases derived from ``seed``.

    The whole sweep runs under :func:`forbid_sockets`; the first failing
    case aborts the sweep after writing its repro artifact.
    """
    summary = SweepSummary(seed=seed, cases=cases)
    with forbid_sockets():
        for index in range(cases):
            experts, x, schedule = _case_inputs(seed, index)
            try:
                report = run_differential_case(
                    experts, x, schedule, reply_timeout=reply_timeout)
            except DifferentialMismatch as exc:
                path = _dump_repro(repro_dir, seed, index, schedule, exc)
                raise DifferentialMismatch(
                    f"case {index} of sweep seed {seed}: {exc} "
                    f"(repro artifact: {path})") from exc
            summary.expert_total += len(experts)
            summary.participant_total += len(report.participants)
            if not _is_benign(schedule):
                summary.faulted_cases += 1
            if report.degraded:
                summary.degraded_cases += 1
            if len(report.participants) == len(experts):
                summary.full_team_cases += 1
    return summary


def replay(path: str, reply_timeout: float | None = 0.5) -> CaseReport:
    """Re-run the exact case recorded in a repro artifact.

    Inputs re-derive from ``(sweep_seed, case_index)``; the schedule is
    taken from the artifact itself so a replay stays faithful even if
    the schedule-sampling strategy has since changed.
    """
    with open(path, encoding="utf-8") as handle:
        artifact = json.load(handle)
    rng = strategies.rng_from(artifact["sweep_seed"], artifact["case_index"])
    experts, x = strategies.expert_team(rng)
    schedule = FaultSchedule.from_dict(artifact["schedule"])
    return run_differential_case(experts, x, schedule,
                                 reply_timeout=reply_timeout)
