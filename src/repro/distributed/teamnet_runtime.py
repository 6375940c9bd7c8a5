"""TeamNet's distributed inference runtime (Figure 1(d), Section III).

One expert per edge node.  The node that receives the sensor input is the
*master*: it broadcasts the input to all peer *workers* (Step 2), runs its
own expert in parallel (Step 3), gathers every worker's (prediction,
uncertainty) pair (Step 4) and selects the least-uncertain answer (Step 5).
Communication is plain framed TCP — one message out and one small message
back per worker, which is the paper's whole latency argument against MPI.

Each peer connection's replies go through a
:class:`repro.comm.demux.ReplyDemux`, which routes reply frames to
waiters by their echoed ``seq``, so the master can keep **multiple
inferences in flight per connection** — the property the micro-batched
serving core (:mod:`repro.distributed.serving`) is built on.  No thread
reads on the master's behalf: a gather registers one reply slot per peer
*before* broadcasting and then waits on the slots, and the waiting
thread reads the replies off the sockets itself — all the peers'
sockets at once, each reply as it lands (the peers' demuxes share one
:class:`repro.comm.demux.DemuxGroup`).  Slot deadlines are absolute
from broadcast time, so one slow or dead worker costs at most one
deadline — never K× — and holds up no faster peer's reply.  On top of
that sits a resilience control plane (:mod:`repro.distributed.resilience`):

* a **failure detector** — per-peer suspicion scores fed by reply
  latencies, misses, and explicit ``ping``/``pong`` heartbeats
  (:meth:`TeamNetMaster.heartbeat`);
* per-peer **circuit breakers** (closed → open → half-open) gating both
  reconnect attempts and broadcasts, so a flapping worker receives zero
  bytes while its breaker is open and is only re-admitted by a
  successful probe;
* **hedged gathers** — a suspected-slow peer gets a latency-quantile
  derived hedge deadline instead of the full ``reply_timeout``; when it
  misses, the master answers from the quorum it has and records
  ``hedged=True`` in :class:`InferenceStats`;
* a **quorum-aware degradation policy** — answers below ``min_quorum``
  participants or above the entropy ceiling are flagged in the stats or
  refused with :class:`~repro.distributed.resilience.QuorumError`,
  never silently returned.

``deploy_local_team`` serves each worker expert on localhost so the whole
protocol runs for real in tests and examples: one forked process per
expert over real TCP, one thread per expert over any given transport.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..comm import protocol
from ..comm.base import Transport
from ..comm.demux import (FRAME_OVERHEAD_BYTES, DemuxGroup, ReplyDemux,
                          ReplySlot, exchange)
from ..comm.server import FrameServer
from ..comm.transport import (MeteredSocket, TcpTransport, TransportStats)
from ..core.entropy import entropy_from_probs
from ..core.inference import (ExpertOutput, argmin_select, expert_dtype,
                              expert_forward, expert_forward_segments,
                              team_dtype, validate_engine)
from ..nn import (CorruptModelError, Module, blas, model_from_bytes,
                  weights_fingerprint)
from .forked import ForkedWorker
from .integrity import (CanaryProber, CanarySet, IntegrityConfig,
                        IntegrityViolation, QuarantineManager, ReplyValidator,
                        structural_reason)
from .overload import RetryBudget, remaining_budget
from .resilience import (CircuitBreaker, DegradationPolicy, LatencyTracker,
                         LeaderLease, PeerResilience, QuorumError,
                         ResilienceConfig, SuspicionTracker)

__all__ = ["ExpertWorker", "TeamNetMaster", "WorkerFailure", "WorkerHealth",
           "LeadershipLost", "deploy_local_team", "InferenceStats"]


@dataclass
class InferenceStats(TransportStats):
    """Traffic, gather and degradation telemetry observed by the master
    for one inference.

    The inherited byte/message counters (one shape with the control
    rounds' ledgers) include traffic to workers that later failed: the
    broadcast bytes went on the wire whether or not a reply came back,
    and the edge cost model must charge for them.  ``participants`` is
    the number of experts (master included) whose output fed the answer;
    ``degraded`` is set whenever that is less than the full team, and
    ``violations`` lists any :class:`DegradationPolicy` breaches when the
    policy flags instead of raising.
    """

    gather_s: float = 0.0
    reply_latency_s: dict[int, float] = field(default_factory=dict)
    failures: int = 0
    hedged: bool = False
    hedged_workers: list[int] = field(default_factory=list)
    hedge_delay_s: float | None = None
    participants: int = 0
    degraded: bool = False
    violations: list[str] = field(default_factory=list)
    #: stale frames (duplicated/reordered replies to *earlier* requests)
    #: discarded by seq correlation during this gather
    stale_replies: int = 0
    #: replies rejected by the data-plane integrity layer (malformed
    #: payload, broken simplex, inconsistent entropy, version mismatch);
    #: each is also counted in ``failures``
    invalid_replies: int = 0
    #: workers that answered EXPIRED (whole request shed for deadline) —
    #: booked as load shedding, never as failures
    expired_replies: int = 0
    #: coalesced segments a worker skipped mid-batch for deadline (their
    #: rows come back as uniform max-entropy filler)
    expired_segments: int = 0


@dataclass
class WorkerHealth:
    """Cumulative per-worker telemetry kept by the master across the
    lifetime of the connection (survives reconnects).  ``detector`` is
    the failure-detector state (suspicion score, latency EWMA); the
    ``suspicion_score`` / ``suspect`` / ``ewma_reply_latency_s``
    properties are its dashboard-friendly readouts."""

    index: int
    address: tuple[str, int]
    replies: int = 0
    failures: int = 0
    timeouts: int = 0
    reconnects: int = 0
    hedges: int = 0
    redeployments: int = 0
    invalid_replies: int = 0
    expired_replies: int = 0
    expired_segments: int = 0
    last_reply_latency_s: float | None = None
    total_reply_latency_s: float = 0.0
    detector: SuspicionTracker = field(default_factory=SuspicionTracker)

    @property
    def mean_reply_latency_s(self) -> float | None:
        if not self.replies:
            return None
        return self.total_reply_latency_s / self.replies

    @property
    def ewma_reply_latency_s(self) -> float | None:
        return self.detector.ewma_latency_s

    @property
    def suspicion_score(self) -> float:
        return self.detector.score

    @property
    def suspect(self) -> bool:
        return self.detector.suspect


class _Peer:
    """Connection state for one worker: socket + reply demux (both None
    while down), the circuit breaker gating its traffic, and cumulative
    health counters (including the failure-detector state)."""

    __slots__ = ("index", "address", "sock", "channel", "health", "breaker")

    def __init__(self, index: int, address: tuple[str, int],
                 sock: MeteredSocket, resilience: ResilienceConfig,
                 replies: DemuxGroup):
        self.index = index
        self.address = address
        self.sock = sock
        self.channel = ReplyDemux(sock, replies)
        self.health = WorkerHealth(index=index, address=address)
        self.reset_control(resilience)

    def reset_control(self, resilience: ResilienceConfig) -> None:
        """Fresh failure detector and circuit breaker for this slot (at
        construction, and when a redeploy rewires it to a new node)."""
        self.health.detector = SuspicionTracker(
            alpha=resilience.ewma_alpha,
            decay=resilience.success_decay,
            threshold=resilience.suspicion_threshold)
        # Seeded per-peer jitter desynchronizes the open windows of
        # breakers that tripped together — without it every peer that
        # died in the same event retries in lockstep, a reconnect storm
        # landing at exactly the wrong moment.
        self.breaker = CircuitBreaker(
            failure_threshold=resilience.failure_threshold,
            reset_timeout=resilience.reset_timeout,
            reset_timeout_max=resilience.reset_timeout_max,
            jitter=resilience.backoff_jitter,
            rng=resilience.breaker_rng(self.index))

    @property
    def alive(self) -> bool:
        return self.sock is not None

    def hang_up(self) -> None:
        """Close the demux and the socket: down until redialled."""
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class _Pending(NamedTuple):
    """One in-flight broadcast: the slots awaiting each peer's reply.

    Produced by :meth:`TeamNetMaster._begin`, consumed exactly once by
    :meth:`TeamNetMaster._finish`.  Several of these may be outstanding
    at a time — that is the serving core's pipeline."""

    x: np.ndarray
    waits: list[tuple[_Peer, ReplySlot]]
    inference: InferenceStats
    hedged_set: set[int]
    #: the policy this batch is judged by (fixed at dispatch)
    degradation: DegradationPolicy


class ExpertWorker:
    """An edge node hosting one expert behind a listening socket.

    ``stop()`` followed by ``start()`` restarts the worker on the *same*
    port, so a master holding the old address can reconnect to it — this
    is what makes recovery after a node reboot possible without
    redeploying the team.  Besides ``infer`` requests the worker answers
    ``ping`` heartbeats (echoing the probe's ``seq``), which is what the
    master's failure detector and half-open circuit breakers probe with.

    Durability hooks (:mod:`repro.store`): with ``store`` (a
    :class:`~repro.store.CheckpointStore`) and ``expert_index`` set,
    every ``start()`` reloads the expert from the newest valid
    checkpoint generation — a rebooted node serves the durable weights,
    not whatever its process happened to hold.  Independently, a
    ``deploy`` message replaces the in-memory expert with the pushed
    archive (see :meth:`TeamNetMaster.redeploy`), which is how a
    standby node becomes a team member.

    A running worker holds one count of the process-wide one-BLAS-thread
    cap (:mod:`repro.nn.blas`), from ``start()`` to ``stop()``.
    """

    def __init__(self, expert: Module, host: str = "127.0.0.1", port: int = 0,
                 transport: Transport | None = None,
                 store=None, expert_index: int | None = None,
                 engine: str = "tape", clock=None):
        self.expert = expert
        self.engine = validate_engine(engine)
        self._store = store
        self._expert_index = expert_index
        # The model-version stamp for the integrity layer: the weights
        # fingerprint taken when the expert was *installed* (construction,
        # checkpoint reload, deploy) — deliberately not per-reply, so a
        # live in-memory corruption keeps answering under the installed
        # version and only a canary probe's wrong answer can expose it.
        self._fingerprint = weights_fingerprint(expert)
        # Leadership view: the highest (leader, epoch) this worker has
        # accepted and when that leader last proved liveness.  ``clock``
        # is injectable so lease ages are deterministic on the testkit's
        # virtual clock (the failover protocol's whole point).
        self._clock = clock if clock is not None else time.monotonic
        # Overload-control counters (plain ints; serve threads bump them
        # under the GIL and tests read them after quiescence).
        self.forwards = 0        #: expert forwards actually executed
        self.shed_expired = 0    #: whole requests shed for deadline
        self.shed_segments = 0   #: coalesced segments shed mid-batch
        self.lease = LeaderLease()
        self._lease_lock = threading.Lock()
        self._server = FrameServer(
            transport if transport is not None else TcpTransport(),
            host, port)
        for kind, handler in ((protocol.PING, self._handle_ping),
                              (protocol.ATTACH, self._handle_attach),
                              (protocol.DEPLOY, self._handle_deploy),
                              (protocol.INFER, self._handle_infer),
                              (protocol.CANARY, self._handle_infer)):
            self._server.register(kind, self._fenced(handler))

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    @property
    def fingerprint(self) -> str:
        """The weights fingerprint stamped on this worker's replies."""
        return self._fingerprint

    def leader_view(self) -> tuple[str | None, int, float | None]:
        """``(leader, epoch, lease_age_s)`` as this worker sees it."""
        with self._lease_lock:
            return (self.lease.leader, self.lease.epoch,
                    self.lease.age(self._clock()))

    # ---------------------------------------------------------- leadership
    def _fenced(self, handler):
        """Wrap ``handler`` in the worker's one epoch fence.

        A frame whose ``epoch`` is below the highest seen comes from a
        deposed master and must be refused, not served — otherwise two
        masters could serve conflicting answers (or push conflicting
        experts) during a failover window.  A current-or-newer epoch
        counts as a lease renewal: live traffic is proof of leader
        liveness.  Frames without an epoch (observer pings, masters run
        without leadership) renew nothing and are never fenced.
        """
        def serve(msg: protocol.Message, sock) -> bytes:
            epoch = msg.meta.get("epoch")
            if epoch is not None:
                with self._lease_lock:
                    if not self.lease.renew(msg.meta.get("leader"), epoch,
                                            self._clock()):
                        return protocol.encode(protocol.ERROR, {
                            "error": f"stale epoch {epoch} < "
                                     f"{self.lease.epoch}",
                            "stale_epoch": True, "epoch": self.lease.epoch,
                            "seq": msg.meta.get("seq")})
            return handler(msg)
        return serve

    def _handle_ping(self, msg: protocol.Message) -> bytes:
        """Heartbeat reply.  A *leader* ping (meta carries ``epoch``)
        has renewed the lease on its way through the fence; an
        *observer* ping (no epoch; standbys and legacy masters) just
        reads it: the pong's ``leader``/``epoch``/``lease_age_s`` payload
        is how standbys learn who leads and how stale the claim is."""
        with self._lease_lock:
            return protocol.encode(protocol.PONG, {
                "seq": msg.meta.get("seq"), "leader": self.lease.leader,
                "epoch": self.lease.epoch,
                "lease_age_s": self.lease.age(self._clock())})

    def _handle_attach(self, msg: protocol.Message) -> bytes:
        """The (re-)attach handshake: a master presenting an epoch >= the
        highest seen has become this worker's leader in the fence; lower
        epochs never get here.  This is how a promoted standby takes
        over live workers — and how a zombie primary learns it has been
        deposed."""
        seq = msg.meta.get("seq")
        if msg.meta.get("epoch") is None:
            return protocol.encode(protocol.ERROR, {
                "error": "attach without a leadership epoch", "seq": seq})
        with self._lease_lock:
            return protocol.encode(protocol.ATTACHED,
                                   {"seq": seq, "epoch": self.lease.epoch})

    def _reload_from_store(self) -> None:
        """Swap in the checkpointed expert, if the store holds one.

        An empty or fully-corrupt store is not an error — the worker
        keeps its in-memory expert (a fresh node has nothing to reload).
        """
        from ..store import NoValidGenerationError  # local: optional dep
        try:
            model, _ = self._store.load_expert(self._expert_index)
        except NoValidGenerationError:
            return
        self.expert = model
        self._fingerprint = weights_fingerprint(model)

    def start(self) -> None:
        if self._server.running:
            return
        if self._store is not None and self._expert_index is not None:
            self._reload_from_store()
        self._server.start()
        blas.acquire()

    def stop(self) -> None:
        running = self._server.running
        self._server.stop()
        if running:
            blas.release()

    def _handle_deploy(self, msg: protocol.Message) -> bytes:
        """Install a pushed expert archive; ack with DEPLOYED.

        A corrupt or missing archive costs the sender an error reply and
        leaves the current expert serving — a bad push must never brick
        the node.
        """
        seq = msg.meta.get("seq")
        blob = msg.arrays.get("model")
        if blob is None:
            return protocol.encode(
                protocol.ERROR,
                {"error": "deploy without a model archive", "seq": seq})
        try:
            model, spec = model_from_bytes(
                np.ascontiguousarray(blob, dtype=np.uint8).tobytes())
        except CorruptModelError as exc:
            return protocol.encode(
                protocol.ERROR, {"error": f"deploy: {exc}", "seq": seq})
        self.expert = model
        self._fingerprint = weights_fingerprint(model)
        return protocol.encode(protocol.DEPLOYED,
                               {"seq": seq, "spec": spec.name})

    # ------------------------------------------------------ deadline shed
    def _shed_rows(self, msg: protocol.Message) -> int | None:
        """Row count to shed when the *whole* request's deadline budget
        is spent, else None.  Per-segment budgets defer the decision to
        :meth:`_forward_shedding`, which can still salvage live segments
        of a coalesced batch."""
        meta = msg.meta
        if meta.get("segment_budgets_s") is not None:
            return None
        left = remaining_budget(meta.get("deadline_budget_s"),
                                meta.get("sent_at"), self._clock())
        if left is None or left > 0.0:
            return None
        x = msg.arrays.get("x")
        return 0 if x is None else int(np.asarray(x).shape[0])

    def _forward_shedding(
            self, msg: protocol.Message) -> tuple[ExpertOutput | None, list]:
        """Forward honoring per-segment deadline budgets.

        Returns ``(output, expired_segment_indices)``.  The clock is
        re-read before *each* segment's forward, so a budget that runs
        out mid-batch sheds the remaining doomed segments instead of
        computing them.  Skipped segments come back as uniform
        max-entropy filler rows: :func:`entropy_from_probs` on exactly
        uniform probabilities satisfies the integrity validator's
        recompute, and maximal entropy can never win the arg-min gate.
        ``output`` is None when every segment expired (caller sends one
        whole-request EXPIRED instead).
        """
        x = np.asarray(msg.arrays["x"])
        segments = msg.meta.get("segments")
        budgets = msg.meta.get("segment_budgets_s")
        if (msg.kind != protocol.INFER or budgets is None
                or segments is None):
            output = expert_forward_segments(self.expert, x, segments,
                                             engine=self.engine)
            self.forwards += (len(segments)
                              if segments and len(segments) > 1 else 1)
            return output, []
        if len(budgets) != len(segments):
            raise ValueError(f"{len(budgets)} segment budgets for "
                             f"{len(segments)} segments")
        if sum(segments) != len(x):
            raise ValueError(f"segments {segments} do not cover "
                             f"{len(x)} rows")
        sent_at = msg.meta.get("sent_at")
        pieces: list[ExpertOutput | None] = [None] * len(segments)
        expired: list[int] = []
        offset = 0
        for i, rows in enumerate(segments):
            left = remaining_budget(budgets[i], sent_at, self._clock())
            if left is not None and left <= 0.0:
                expired.append(i)
            else:
                pieces[i] = expert_forward(self.expert,
                                           x[offset:offset + rows],
                                           engine=self.engine)
                self.forwards += 1
            offset += rows
        live = next((p for p in pieces if p is not None), None)
        if live is None:
            return None, expired
        n_classes = int(live.probs.shape[-1])
        probs_parts, ent_parts = [], []
        for i, rows in enumerate(segments):
            piece = pieces[i]
            if piece is None:
                filler = np.full((rows, n_classes), 1.0 / n_classes,
                                 dtype=live.probs.dtype)
                probs_parts.append(filler)
                ent_parts.append(entropy_from_probs(filler).astype(
                    live.entropy.dtype, copy=False))
            else:
                probs_parts.append(piece.probs)
                ent_parts.append(piece.entropy)
        return ExpertOutput(
            probs=np.concatenate(probs_parts, axis=0),
            entropy=np.concatenate(ent_parts, axis=0)), expired

    def _handle_infer(self, msg: protocol.Message) -> bytes:
        """INFER and CANARY: run the expert, reply RESULT (or EXPIRED;
        ERROR for an input that is not in the expert's dtype)."""
        # Replies echo the request's seq so the master can correlate
        # them: a duplicated or reordered reply from an earlier request
        # must never be mistaken for the answer to the current one.
        seq = msg.meta.get("seq")
        # The expert's dtype is the compute dtype: the master casts at
        # its boundary, so an input in any other dtype is refused, not
        # silently promoted into a forward at another precision.
        x = msg.arrays.get("x")
        dtype = expert_dtype(self.expert)
        if x is not None and x.dtype != dtype:
            return protocol.encode(protocol.ERROR, {
                "error": f"input dtype {x.dtype} is not the expert's "
                         f"{dtype}",
                "expected_dtype": dtype.name, "seq": seq})
        # Deadline shedding: a request whose budget is already spent
        # gets a typed EXPIRED reply instead of a wasted forward — the
        # master books it as shed, never as a failure.
        shed_rows = (self._shed_rows(msg)
                     if msg.kind == protocol.INFER else None)
        if shed_rows is None:
            try:
                # ``segments`` marks a coalesced micro-batch whose
                # per-request row runs must be forwarded separately for
                # bit-exactness (see expert_forward_segments).  A canary
                # probe is an ordinary forward on the known-answer batch
                # — an honest worker cannot tell probes from traffic,
                # which is the point.
                output, expired = self._forward_shedding(msg)
            except Exception as exc:  # noqa: BLE001 - reply, don't die
                # A bad input (wrong shape, missing array) must cost the
                # sender an error reply, not this serve thread.
                return protocol.encode(protocol.ERROR, {
                    "error": f"inference: {exc}", "seq": seq})
            self.shed_segments += len(expired)
            if output is None:
                # Every segment's budget expired mid-batch.
                shed_rows = int(np.asarray(msg.arrays["x"]).shape[0])
        if shed_rows is not None:
            self.shed_expired += 1
            return protocol.encode(protocol.EXPIRED,
                                   {"seq": seq, "rows": shed_rows})
        reply_meta = {"seq": seq, "model_version": self._fingerprint}
        if expired:
            reply_meta["expired_segments"] = expired
        return protocol.encode(protocol.RESULT, reply_meta, {
            "probs": output.probs, "entropy": output.entropy})


class WorkerFailure(ConnectionError):
    """Raised when collaboration fails under a whole-team policy."""


class LeadershipLost(RuntimeError):
    """This master has been fenced: a worker (or a pong) presented a
    leadership epoch higher than the master's own, meaning a standby was
    promoted in its place.  The master is permanently deposed — every
    subsequent broadcast raises this too — and its callers must re-drive
    pending requests to the new leader
    (:class:`repro.distributed.failover.FailoverServer` does exactly
    that).  Deliberately *not* a ConnectionError: the workers are fine,
    it is this master's claim to them that died."""


class TeamNetMaster:
    """The master node: local expert + connections to all workers.

    The ``degradation`` policy alone decides what a short-handed team
    does.  The default, ``DegradationPolicy()``, needs the whole team: a
    worker failure raises :class:`WorkerFailure`.  With an integer
    ``min_quorum`` a dead or late worker is dropped and the master
    answers from the rest (each expert only knows part of the data, so
    accuracy degrades — but the system keeps answering), flagging or
    refusing answers below the quorum or above the entropy ceiling.

    ``reply_timeout`` is a single **per-inference** gather deadline: every
    peer's reply slot is armed with it at broadcast time and the workers
    answer concurrently; the gathering thread reads every reply itself
    as it lands, whichever slot it is waiting on, so the total wait is
    bounded by one deadline no matter how many workers straggle.  A
    *suspected-slow* peer gets a shorter, latency-quantile-derived hedge
    deadline instead (see
    :class:`~repro.distributed.resilience.ResilienceConfig`), so a known
    straggler costs the gather its hedge delay, not the full deadline.

    Failed workers are gated by per-peer circuit breakers: below the
    failure threshold a reconnect is attempted on the next inference;
    once the breaker trips open, the worker receives nothing until the
    open window (``resilience.reset_timeout`` seconds, doubling per
    re-trip up to ``resilience.reset_timeout_max``) elapses and a probe
    succeeds.  A worker that comes back (same address) rejoins the team
    automatically.

    Plain ``infer``/``heartbeat`` calls must not overlap each other.  For
    concurrent callers, wrap the master in a
    :class:`~repro.distributed.serving.TeamNetServer` (or call
    :meth:`serve`): its single dispatcher/collector pair drives the
    split ``_begin``/``_finish`` pipeline underneath, which *is* safe to
    overlap — peer bookkeeping is guarded by the master's state lock and
    replies are correlated by seq, not by call order.
    """

    def __init__(self, expert: Module,
                 worker_addresses: list[tuple[str, int]],
                 reply_timeout: float | None = None,
                 connect_timeout: float = 0.25,
                 transport: Transport | None = None,
                 resilience: ResilienceConfig | None = None,
                 degradation: DegradationPolicy | None = None,
                 store=None, engine: str = "tape",
                 epoch: int | None = None, leader_id: str | None = None,
                 integrity: IntegrityConfig | None = None,
                 canaries: CanarySet | None = None,
                 expected_versions: dict[int, str] | None = None,
                 retry_budget: RetryBudget | None = None,
                 clock=None):
        self.expert = expert
        #: the team's compute dtype: every broadcast input is cast to it
        #: once, before encode, and workers refuse any other
        self.dtype = expert_dtype(expert)
        self.engine = validate_engine(engine)
        self.store = store
        # Leadership identity (master failover).  With an ``epoch`` set,
        # every frame sent to a worker carries it and workers fence off
        # anything below the highest epoch they have seen; ``None`` is
        # the legacy single-master mode (no epochs on the wire, never
        # fenced).  ``leader_id`` names this master in pong payloads so
        # standbys can tell *who* leads, not just that someone does.
        self.epoch = None if epoch is None else int(epoch)
        self.leader_id = leader_id
        self._deposed = False
        #: standby-master addresses to push roster deltas to (see
        #: :meth:`announce_roster`); the failover layer registers them.
        self.standbys: list[tuple[str, int]] = []
        self._roster_version = 0
        self.reply_timeout = reply_timeout
        self.connect_timeout = connect_timeout
        # ``clock`` stamps outgoing deadline meta (``sent_at``); inject
        # the testkit's virtual clock so budgets age deterministically on
        # the sim fabric.  It must be the same clock the workers read.
        self._clock = clock if clock is not None else time.monotonic
        # Overload control (repro.distributed.overload).  ``retry_budget``
        # is the shared token bucket gating every load-amplifying retry:
        # reconnect dials, auto-redeploy pushes, hedged gathers, and (via
        # the failover layer) request re-drives.  None = unlimited.
        self.retry_budget = retry_budget
        self.resilience = resilience if resilience is not None else \
            ResilienceConfig()
        self.degradation = degradation if degradation is not None else \
            DegradationPolicy()
        self._transport = transport if transport is not None else TcpTransport()
        # The peers' reply demuxes are read together, in arrival order,
        # by whichever thread gathers (see repro.comm.demux.DemuxGroup).
        self._replies = DemuxGroup()
        self._peers = [
            _Peer(i, (host, port), self._transport.connect(host, port),
                  self.resilience, self._replies)
            for i, (host, port) in enumerate(worker_addresses, start=1)]
        self._latencies = LatencyTracker(self.resilience.latency_window)
        # One seq counter shared by infers and pings: every request gets
        # a unique seq, every reply echoes it, and the demux discards any
        # frame whose seq has no registered waiter (duplicated/reordered
        # deliveries leave stale frames queued on long-lived connections).
        self._request_seq = 0
        # Guards all peer/bookkeeping state: sends, reconnects, failure
        # and success accounting, the seq counter, and the latency window.
        # Never held across a slot wait — I/O waits happen outside it, so
        # a broadcast can begin while an earlier gather is still waiting.
        self._lock = threading.Lock()
        #: cumulative traffic spent on heartbeat probes (not per-inference)
        self.heartbeat_traffic = TransportStats()
        #: cumulative traffic spent pushing models to standby workers
        self.redeploy_traffic = TransportStats()
        #: cumulative traffic spent on known-answer canary probes
        self.canary_traffic = TransportStats()
        # Data-plane integrity (repro.distributed.integrity): reply
        # validation + version fencing on every gather, canary probes on
        # the heartbeat cadence, quarantine on failure.  All optional —
        # with ``integrity=None`` only the always-on structural reply
        # checks run (garbage payloads become WorkerFailure, never a raw
        # numpy error in the gate).
        self.integrity = integrity
        self._validator = (ReplyValidator(integrity)
                           if integrity is not None else None)
        self.quarantine = (QuarantineManager(integrity.readmit_passes)
                           if integrity is not None else None)
        self._expected_versions: dict[int, str] = dict(expected_versions
                                                       or {})
        if (canaries is None and integrity is not None
                and store is not None and hasattr(store, "load_canary")):
            canaries = store.load_canary(dtype=self.dtype)
        self._prober = (CanaryProber(integrity, canaries)
                        if integrity is not None and canaries is not None
                        else None)
        # Golden-trace capture for the differential testkit: the expert
        # outputs and original team indices that fed the last selection.
        self.last_outputs: dict[int, ExpertOutput] = {}
        self.last_participants: list[int] = []

    @property
    def team_size(self) -> int:
        return 1 + len(self._peers)

    @property
    def live_team_size(self) -> int:
        return self.team_size - len(self.failed_workers)

    @property
    def failed_workers(self) -> list[int]:
        """Indices of workers currently down (they may yet rejoin)."""
        return [peer.index for peer in self._peers if not peer.alive]

    @property
    def worker_health(self) -> dict[int, WorkerHealth]:
        """Cumulative per-worker reply-latency and failure telemetry."""
        return {peer.index: peer.health for peer in self._peers}

    def resilience_snapshot(self) -> dict[int, PeerResilience]:
        """Control-plane state per worker: breaker, suspicion, latency.

        Render with :func:`repro.edge.monitor.resilience_table`.
        """
        snapshot = {}
        for peer in self._peers:
            record = (self.quarantine.snapshot(peer.index)
                      if self.quarantine is not None else None)
            snapshot[peer.index] = PeerResilience(
                index=peer.index, address=peer.address, alive=peer.alive,
                breaker_state=peer.breaker.state,
                consecutive_failures=peer.breaker.consecutive_failures,
                breaker_trips=peer.breaker.trips,
                suspicion_score=peer.health.suspicion_score,
                suspect=peer.health.suspect,
                ewma_reply_latency_s=peer.health.ewma_reply_latency_s,
                replies=peer.health.replies,
                failures=peer.health.failures,
                timeouts=peer.health.timeouts,
                hedges=peer.health.hedges,
                reconnects=peer.health.reconnects,
                redeployments=peer.health.redeployments,
                invalid_replies=peer.health.invalid_replies,
                quarantined=record.quarantined if record else False,
                quarantines=record.quarantines if record else 0,
                quarantine_reason=record.reason if record else None,
                canary_failures=record.canary_failures if record else 0,
                readmissions=record.readmissions if record else 0,
                expired_replies=peer.health.expired_replies,
                expired_segments=peer.health.expired_segments)
        return snapshot

    # ------------------------------------------------------------ recovery
    def _maybe_reconnect(self) -> None:
        """Retry down workers whose circuit breaker admits a probe.

        Caller holds ``_lock``."""
        for peer in self._peers:
            if peer.alive or not peer.breaker.allow():
                continue
            # Reconnect dials draw on the shared retry budget: under
            # overload a fleet of down peers must not amplify load with
            # synchronized dial storms.  A denied token skips this round
            # — the breaker window, not the budget, schedules the next.
            if (self.retry_budget is not None
                    and not self.retry_budget.try_spend()):
                continue
            try:
                sock = self._transport.connect(
                    *peer.address, retries=1, delay=0.0,
                    timeout=self.connect_timeout)
            except (ConnectionError, OSError):
                peer.breaker.record_failure()
                continue
            peer.sock = sock
            peer.channel = ReplyDemux(sock, self._replies)
            peer.health.reconnects += 1
            # A successful dial is not yet a successful round-trip:
            # the breaker stays where it is (half-open after a trip)
            # until a reply or a pong actually comes back.

    def redeploy(self, index: int, address: tuple[str, int],
                 blob: bytes | None = None,
                 timeout: float | None = 5.0) -> None:
        """Re-provision worker slot ``index`` onto a standby node.

        Degradation keeps the team answering when a worker dies, but a
        *permanently* dead worker would shrink the team forever — and
        each expert only knows its partition, so the lost specialization
        never comes back on its own.  ``redeploy`` restores it: push the
        expert's serialized archive (``blob``, defaulting to the stored
        one from the attached :class:`~repro.store.CheckpointStore`) to
        the standby listening at ``address``, wait for its ``deployed``
        ack, and rewire peer ``index`` to the new node with a fresh
        circuit breaker and failure detector (the replacement must not
        inherit the corpse's open breaker).  Raises
        :class:`WorkerFailure` if the standby is unreachable, rejects
        the archive, or replies with garbage; the old peer state is
        untouched in that case.  The push carries this master's epoch
        like every frame it sends: a node already following a higher one
        refuses it and this master is deposed (:class:`LeadershipLost`);
        a master already deposed raises without dialling.

        The model push is metered in :attr:`redeploy_traffic`, not in
        any inference's stats.
        """
        if not 1 <= index <= len(self._peers):
            raise IndexError(f"worker index must be 1..{len(self._peers)}, "
                             f"got {index}")
        peer = self._peers[index - 1]
        if blob is None:
            if self.store is None:
                raise ValueError(
                    "redeploy needs a model blob or a checkpoint store "
                    "attached to the master (store=...)")
            blob = self.store.expert_bytes(index)
        with self._lock:
            self._require_leadership()
        try:
            sock = self._transport.connect(*address,
                                           timeout=self.connect_timeout)
        except (ConnectionError, OSError) as exc:
            raise WorkerFailure(
                f"standby {address} for worker {index} is unreachable: "
                f"{exc}") from exc
        with self._lock:
            seq = self._next_seq()
        try:
            reply = exchange(sock, protocol.encode(
                protocol.DEPLOY, self._stamp({"seq": seq}),
                {"model": np.frombuffer(blob, dtype=np.uint8)}),
                seq, timeout)
        except (ConnectionError, OSError, TimeoutError) as exc:
            # A standby replying with a malformed frame lands here too
            # (ChannelDead is a ConnectionError): it must surface as a
            # WorkerFailure with the socket closed, not leak the socket
            # and escape as a raw decode error.
            sock.close()
            raise WorkerFailure(
                f"deploy to standby {address} failed: {exc}") from exc
        if reply.kind != protocol.DEPLOYED:
            sock.close()
            if reply.meta.get("stale_epoch"):
                self._depose(reply.meta.get("epoch"), protocol.DEPLOY)
            raise WorkerFailure(
                f"standby {address} rejected the deploy: "
                f"{reply.meta.get('error', reply.kind)}")
        self.redeploy_traffic.merge(sock.stats)
        sock.stats.reset()
        # Commit the rewire only after a successful ack.
        with self._lock:
            peer.hang_up()
            peer.sock = sock
            peer.channel = ReplyDemux(sock, self._replies)
            peer.address = address
            peer.health.address = address
            peer.health.redeployments += 1
            peer.reset_control(self.resilience)
            if self._validator is not None:
                # The pushed archive defines the slot's new expected
                # version: replies from here on must stamp it, and a
                # pre-deploy worker reconnecting with the old expert is
                # fenced by the mismatch.
                self._expected_versions[index] = weights_fingerprint(
                    model_from_bytes(blob)[0])
        self._roster_changed()

    def _auto_redeploy(self, peer: _Peer) -> bool:
        """Best-effort push of the stored (known-good) expert onto a slot
        that just failed an integrity check.

        Quarantine without repair would bench the slot forever; the
        checkpoint store holds the weights the slot *should* be running,
        so push them back.  Failures here are swallowed — the slot stays
        quarantined and the next canary failure retries, which *is* the
        retry policy.  Returns True when the redeploy committed.
        """
        if (self.integrity is None or not self.integrity.auto_redeploy
                or self.store is None):
            return False
        from ..store import NoValidGenerationError  # local: optional dep
        # An auto-redeploy is a retry in the budget's sense: it pushes a
        # whole model archive at a cluster that may already be drowning.
        if (self.retry_budget is not None
                and not self.retry_budget.try_spend()):
            return False
        try:
            self.redeploy(peer.index, tuple(peer.address))
        except (NoValidGenerationError, KeyError, WorkerFailure, OSError):
            return False
        self.quarantine.note_redeploy(peer.index)
        return True

    # ------------------------------------------------------------- failure
    @staticmethod
    def _drain_stale(peer: _Peer, sink: TransportStats) -> None:
        """Meter the stale frames ``peer``'s demux absorbed into ``sink``
        so the traffic record stays complete.  Caller holds ``_lock``."""
        stale, stale_bytes = peer.channel.take_stale()
        sink.messages_received += stale
        sink.bytes_received += stale_bytes

    def _fail(self, peer: _Peer, sink: TransportStats,
              timed_out: bool = False, hedged: bool = False) -> None:
        """Record a worker failure: salvage the stale frames its demux
        read into ``sink``, close its channel and socket (a late reply
        on a reused connection would desync the frame stream), arm the
        breaker and bump the suspicion score.  Caller holds ``_lock``."""
        if peer.channel is not None:
            self._drain_stale(peer, sink)
        peer.hang_up()
        peer.health.failures += 1
        if timed_out:
            peer.health.timeouts += 1
        if hedged:
            peer.health.hedges += 1
        peer.health.detector.miss()
        peer.breaker.record_failure()

    @staticmethod
    def _distrust(peer: _Peer) -> None:
        """Book an answer that arrived but failed an integrity check
        (caller holds ``_lock``)."""
        peer.health.failures += 1
        peer.health.invalid_replies += 1
        peer.health.detector.miss()

    # -------------------------------------------------------------- success
    def _record_reply(self, peer: _Peer, latency: float,
                      inference: InferenceStats) -> None:
        """Book-keep one successful reply (caller holds ``_lock``)."""
        inference.reply_latency_s[peer.index] = latency
        peer.health.replies += 1
        peer.health.last_reply_latency_s = latency
        peer.health.total_reply_latency_s += latency
        self._credit(peer, latency)
        self._latencies.add(latency)

    @staticmethod
    def _credit(peer: _Peer, latency: float | None = None) -> None:
        """A reply proves liveness: decay the suspicion score — feeding
        the reply-latency EWMA only when ``latency`` is real expert
        compute — and close a half-open breaker.  Caller holds ``_lock``."""
        peer.health.detector.observe(latency)
        peer.breaker.record_success()

    def _next_seq(self) -> int:
        """Caller holds ``_lock``."""
        self._request_seq += 1
        return self._request_seq

    def _stamp(self, meta: dict) -> dict:
        """Add this master's leadership claim to a control frame's meta."""
        if self.epoch is not None:
            meta["epoch"] = self.epoch
            meta["leader"] = self.leader_id
        return meta

    def _require_leadership(self) -> None:
        """Caller holds ``_lock``."""
        if self._deposed:
            raise LeadershipLost(
                f"master {self.leader_id or ''} (epoch {self.epoch}) "
                "has been fenced by a higher epoch")

    def _depose(self, fenced_epoch, kind: str) -> None:
        """A worker refused this master's epoch: it is deposed for good.

        A stale-epoch refusal outranks every other failure mode, and
        fires even when the policy may degrade: a deposed master must not
        keep serving "degraded" answers from whatever workers its
        broadcasts still reach before they learn of the new leader."""
        with self._lock:
            self._deposed = True
        raise LeadershipLost(
            f"{kind!r} at epoch {self.epoch} fenced: a worker follows "
            f"leadership epoch {fenced_epoch}")

    # -------------------------------------------------------------- hedging
    def _hedge_plan(self, sent: list[_Peer], policy: DegradationPolicy
                    ) -> tuple[float | None, set[int]]:
        """Decide the hedge delay and which of ``sent`` get it.

        Hedging arms once the latency window holds enough samples; the
        delay is ``max(multiplier × Q(quantile), floor)``.  A peer is
        hedged when the failure detector marks it suspect (misses) or its
        latency EWMA already exceeds the hedge delay (it is *expected* to
        miss it).  Hedging is skipped entirely when cutting the suspects
        loose could leave the answer below ``policy``'s quorum — better
        to burn the deadline than to refuse an answer we could have had.
        So a whole-team policy never hedges: a fired hedge would fail a
        merely slow peer and close its connection.
        """
        cfg = self.resilience
        if not cfg.hedging or len(self._latencies) < cfg.hedge_min_samples:
            return None, set()
        if (self.retry_budget is not None
                and self.retry_budget.available() < 1.0):
            # A hedge that fires becomes a failure + reconnect; with the
            # retry budget drained those amplify load, so pause hedging.
            return None, set()
        delay = max(cfg.hedge_multiplier
                    * self._latencies.quantile(cfg.hedge_quantile),
                    cfg.hedge_floor_s)
        if self.reply_timeout is not None and delay >= self.reply_timeout:
            return None, set()
        suspects = {
            peer.index for peer in sent
            if peer.health.suspect
            or (peer.health.ewma_reply_latency_s is not None
                and peer.health.ewma_reply_latency_s > delay)}
        if not suspects:
            return None, set()
        floor = (self.team_size if policy.min_quorum is None
                 else policy.min_quorum)
        if 1 + len(sent) - len(suspects) < floor:
            return None, set()
        return delay, suspects

    # ----------------------------------------------------------- broadcast
    def _send(self, peer: _Peer, request: bytes, seq: int,
              allowance: float | None, sink: TransportStats) -> ReplySlot:
        """The send half of every broadcast, for one peer: register the
        reply slot *before* sending (so a fast reply can never race past
        its waiter), send, and meter the frame into ``sink``.  A peer
        that cannot be sent to is failed — slot withdrawn, socket
        closed, breaker armed — and the error re-raised for the caller
        to count.  Caller holds ``_lock``."""
        slot = None
        try:
            slot = peer.channel.expect(seq, allowance)
            peer.sock.send(request)
        except (ConnectionError, OSError):
            if slot is not None:
                slot.cancel()
            self._fail(peer, sink)
            raise
        sink.messages_sent += 1
        sink.bytes_sent += FRAME_OVERHEAD_BYTES + len(request)
        return slot

    def _begin(self, x: np.ndarray,
               segments: list[int] | None = None,
               deadline_budget_s: float | None = None,
               segment_budgets_s: list[float | None] | None = None,
               hedge: bool = True,
               degradation: DegradationPolicy | None = None
               ) -> _Pending:
        """Step 2: broadcast ``x`` to every admissible peer.

        ``deadline_budget_s`` is the request's remaining relative budget
        at send time; ``segment_budgets_s`` carries per-request budgets
        for a coalesced batch (parallel to ``segments``, None entries =
        no deadline).  Either stamps ``sent_at`` from the master's clock
        so workers sharing a comparable clock can charge transit time
        and shed expired work before the forward.

        ``degradation`` (the master's own policy by default) decides
        whether this batch may go short-handed, here and in
        :meth:`_finish`; ``hedge=False`` arms no hedge deadline.  The
        serving layer passes what its brownout rung allows at dispatch.

        ``x`` is cast to the team dtype here, once; the returned
        :class:`_Pending` carries the cast batch for the local forward.
        Registers one reply slot per peer, armed with the hedge delay for
        suspects and ``reply_timeout`` otherwise.  Returns the
        :class:`_Pending` handle that :meth:`_finish` turns into an
        answer; several may be in flight at once — the serving core's
        pipeline — as long as a single thread at a time calls ``_begin``
        (framed sends on a shared connection must not interleave).
        """
        x = np.asarray(x, dtype=self.dtype)
        inference = InferenceStats()
        policy = degradation if degradation is not None else self.degradation
        whole_team = policy.min_quorum is None
        with self._lock:
            self._require_leadership()
            self._maybe_reconnect()
            quarantined = (set(self.quarantine.quarantined())
                           if self.quarantine is not None else set())
            if whole_team and (self.failed_workers or quarantined):
                raise WorkerFailure(
                    f"workers {self.failed_workers} are down and "
                    f"{sorted(quarantined)} quarantined; the policy needs "
                    "the whole team")
            seq = self._next_seq()
            meta: dict = {"seq": seq}
            if self.epoch is not None:
                meta["epoch"] = self.epoch
            if segments is not None and len(segments) > 1:
                meta["segments"] = [int(s) for s in segments]
            if deadline_budget_s is not None:
                meta["deadline_budget_s"] = float(deadline_budget_s)
            # Segment budgets only make sense alongside the "segments"
            # meta (len > 1); a single-request batch rides the
            # whole-request ``deadline_budget_s`` instead.
            if (segment_budgets_s is not None and segments is not None
                    and len(segments) > 1
                    and any(b is not None for b in segment_budgets_s)):
                if len(segment_budgets_s) != len(segments):
                    raise ValueError(
                        f"{len(segment_budgets_s)} segment budgets for "
                        f"{len(segments)} segments")
                meta["segment_budgets_s"] = [
                    None if b is None else float(b)
                    for b in segment_budgets_s]
            if "deadline_budget_s" in meta or "segment_budgets_s" in meta:
                meta["sent_at"] = float(self._clock())
            request = protocol.encode(protocol.INFER, meta, {"x": x})
            # A quarantined slot gets no broadcast: its answers are
            # untrustworthy, so it earns no gate entry and no quorum
            # credit.  It still receives canary probes — the only road
            # back to the team.
            targets = [peer for peer in self._peers
                       if peer.alive and peer.breaker.allow()
                       and peer.index not in quarantined]
            hedge_delay, hedged_set = (self._hedge_plan(targets, policy)
                                       if hedge else (None, set()))
            inference.hedge_delay_s = hedge_delay
            waits: list[tuple[_Peer, ReplySlot]] = []
            for peer in targets:
                allowance = (hedge_delay if peer.index in hedged_set
                             else self.reply_timeout)
                try:
                    waits.append((peer, self._send(peer, request, seq,
                                                   allowance, inference)))
                except (ConnectionError, OSError) as exc:
                    inference.failures += 1
                    if whole_team:
                        for _, pending_slot in waits:
                            pending_slot.cancel()
                        raise WorkerFailure(
                            f"worker {peer.index} failed: {exc}") from exc
        return _Pending(x, waits, inference, hedged_set, policy)

    # -------------------------------------------------------------- gather
    def _finish(self, pending: _Pending, local_output: ExpertOutput
                ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """Steps 4–5: collect the replies for one broadcast and select.

        Waits out each peer's reply slot in turn; while it waits, this
        thread reads every peer's reply as it lands (slot deadlines are
        absolute from broadcast time, so sequential waiting compounds
        nothing and no reply is timed by when its slot was reached),
        books successes and failures, then runs the arg-min gate and the
        degradation policy.  One thread at a time may call ``_finish``,
        but it may overlap ``_begin`` calls for later requests.
        """
        inference = pending.inference
        gather_start = time.monotonic()
        results: dict[int, ExpertOutput | Exception] = {}
        fenced_epoch: int | None = None
        answered = 0
        for peer, slot in pending.waits:
            try:
                message, latency, nbytes = slot.wait()
                answered += 1
                inference.messages_received += 1
                inference.bytes_received += nbytes
                if message.kind == protocol.EXPIRED:
                    # The worker shed this request for deadline: load
                    # shedding, not a fault.  The reply proves liveness
                    # but carries no compute latency and no gate entry.
                    with self._lock:
                        inference.expired_replies += 1
                        peer.health.expired_replies += 1
                        self._credit(peer)
                    results[peer.index] = None
                    continue
                if message.kind != protocol.RESULT:
                    if message.meta.get("stale_epoch"):
                        fenced_epoch = message.meta.get("epoch")
                    raise WorkerFailure(
                        "worker failure: "
                        f"{message.meta.get('error', message.kind)}")
                probs = message.arrays.get("probs")
                entropy = message.arrays.get("entropy")
                rows = pending.x.shape[0]
                # Structural checks are always on: a wrong-shaped reply
                # would otherwise crash the gate's np.stack with a raw
                # numpy error instead of surfacing as a worker failure.
                reason = structural_reason(probs, entropy, rows)
                if reason is None and self._validator is not None:
                    claimed = message.meta.get("model_version")
                    with self._lock:
                        expected = self._expected_versions.get(peer.index)
                    reason = self._validator.validate(
                        probs, entropy, rows,
                        claimed_version=claimed,
                        expected_version=expected)
                    if (reason is None and expected is None
                            and claimed is not None
                            and self.integrity.pin_first_version):
                        # Trust-on-first-use: pin the first stamped
                        # version so later swaps (a stale worker
                        # reconnecting after a redeploy it missed) are
                        # fenced even when no deploy recorded a version.
                        with self._lock:
                            self._expected_versions.setdefault(
                                peer.index, claimed)
                if reason is not None:
                    raise IntegrityViolation(
                        f"worker {peer.index}: {reason}")
                outcome: ExpertOutput | Exception = ExpertOutput(
                    probs=probs, entropy=entropy)
                shed_segments = message.meta.get("expired_segments")
                with self._lock:
                    self._record_reply(peer, latency, inference)
                    if shed_segments:
                        # Mid-batch deadline sheds: the reply is live and
                        # valid (filler rows are uniform max-entropy and
                        # cannot win the gate), but the shed work must be
                        # booked so benches see it.
                        inference.expired_segments += len(shed_segments)
                        peer.health.expired_segments += len(shed_segments)
            except Exception as exc:  # noqa: BLE001 - booked as a failure
                outcome = exc
            results[peer.index] = outcome
        inference.gather_s = time.monotonic() - gather_start
        hedge_missed = sorted(
            index for index in pending.hedged_set
            if isinstance(results.get(index), TimeoutError))
        if hedge_missed:
            inference.hedged = True
            inference.hedged_workers = hedge_missed
        outputs = [local_output]
        indices = [0]
        first_error: tuple[_Peer, Exception] | None = None
        quarantine_actions: list[tuple[_Peer, str]] = []
        with self._lock:
            for peer, _ in pending.waits:
                outcome = results[peer.index]
                if outcome is None:
                    # EXPIRED reply: already booked as shed in the wait
                    # loop — no gate entry, no quorum credit, no failure.
                    continue
                if isinstance(outcome, ExpertOutput):
                    outputs.append(outcome)
                    indices.append(peer.index)
                    continue
                inference.failures += 1
                if first_error is None:
                    first_error = (peer, outcome)
                if isinstance(outcome, IntegrityViolation):
                    # The connection is fine — the *data* lies.  Book the
                    # failure without closing the socket: the channel must
                    # stay healthy so canary probes can later readmit (or
                    # keep condemning) the slot.
                    inference.invalid_replies += 1
                    self._distrust(peer)
                    quarantine_actions.append((peer, str(outcome)))
                else:
                    self._fail(peer, inference,
                               timed_out=isinstance(outcome, TimeoutError),
                               hedged=peer.index in inference.hedged_workers)
            # Stale frames the surviving demuxes routed during this
            # gather: meter them here so the traffic ledger stays
            # complete (failed peers were drained in _fail).  Every frame
            # received that was not a slot's awaited reply was stale.
            for peer, _ in pending.waits:
                if peer.channel is not None:
                    self._drain_stale(peer, inference)
            inference.stale_replies = inference.messages_received - answered
        # Quarantine before any raise below: a slot that lied must be
        # benched even when this gather also ends in an error.
        if self.quarantine is not None:
            for peer, reason in quarantine_actions:
                self.quarantine.record_invalid(peer.index, reason)
        if fenced_epoch is not None:
            self._depose(fenced_epoch, protocol.INFER)
        # The repair runs outside the lock (auto-redeploy pushes a model
        # over the network) and only after the fence check: a deposed
        # master must not push archives on its way out.
        for peer, _ in quarantine_actions:
            self._auto_redeploy(peer)
        policy = pending.degradation
        if first_error is not None and policy.min_quorum is None:
            peer, exc = first_error
            raise WorkerFailure(f"worker {peer.index} failed: {exc}") from exc
        # Step 5: least-uncertainty selection.
        preds, winner = argmin_select(outputs)
        winner = np.asarray(indices)[winner]
        self.last_outputs = dict(zip(indices, outputs))
        self.last_participants = list(indices)
        # Degradation accounting: how partial is this answer, and does the
        # policy allow returning it?
        inference.participants = len(indices)
        inference.degraded = len(indices) < self.team_size
        entropies = np.stack([o.entropy for o in outputs], axis=1)
        winner_entropy = entropies.min(axis=1)
        max_winner_entropy = (float(winner_entropy.max())
                              if winner_entropy.size else None)
        violations = policy.violations(len(indices), max_winner_entropy)
        if violations and policy.on_violation == "raise":
            raise QuorumError("; ".join(violations))
        inference.violations = violations
        return preds, winner, inference

    # --------------------------------------------------------------- infer
    def infer(self, x: np.ndarray,
              deadline_budget_s: float | None = None
              ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """One collaborative inference over the team.

        Returns (predictions, winning expert index, traffic stats).  The
        master's own expert is index 0; workers follow in connection
        order.  Winning indices refer to the *original* team numbering
        even after degradation.

        ``deadline_budget_s`` propagates a per-request latency budget to
        the workers: a worker whose copy arrives with the budget already
        spent sheds the forward and replies ``EXPIRED`` (booked as a
        shed, not a failure).  The master still computes its local
        expert — the caller asked it directly, so it always answers.
        """
        pending = self._begin(x, deadline_budget_s=deadline_budget_s)
        # Step 3: run the local expert while the workers compute.
        local_output = expert_forward(self.expert, pending.x,
                                      engine=self.engine)
        return self._finish(pending, local_output)

    def serve(self, **kwargs):
        """Wrap this master in a concurrent micro-batching
        :class:`~repro.distributed.serving.TeamNetServer` (started)."""
        from .serving import TeamNetServer  # local: avoid import cycle
        server = TeamNetServer(self, **kwargs)
        server.start()
        return server

    # ------------------------------------------------------ control rounds
    def _round(self, kind: str, reply_kind: str, timeout: float | None,
               ledger: TransportStats, arrays: dict | None = None
               ) -> tuple[list[tuple[_Peer, protocol.Message, float]],
                          list[_Peer]]:
        """One control-plane broadcast round: ``kind`` out to every
        admissible peer (alive, breaker willing — quarantined slots
        included), one ``reply_kind`` back from each under ``timeout``
        (default: the heartbeat timeout).

        Returns ``(replies, failed)``: ``(peer, reply, latency)`` per
        peer that answered as expected — what a good reply *means* is
        the caller's business — and the peers that could not be sent to,
        missed the deadline or answered anything else, now failed (socket
        closed, breaker armed).  All traffic, stale frames included, is
        metered in ``ledger``, not in any inference's stats.  A
        ``stale_epoch`` refusal deposes this master.
        """
        if timeout is None:
            timeout = self.resilience.heartbeat_timeout
        replies: list[tuple[_Peer, protocol.Message, float]] = []
        failed: list[_Peer] = []
        with self._lock:
            self._maybe_reconnect()
            seq = self._next_seq()
            request = protocol.encode(kind, self._stamp({"seq": seq}),
                                      arrays)
            waits: list[tuple[_Peer, ReplySlot]] = []
            for peer in self._peers:
                if not peer.alive or not peer.breaker.allow():
                    continue
                try:
                    waits.append((peer, self._send(peer, request, seq,
                                                   timeout, ledger)))
                except (ConnectionError, OSError):
                    failed.append(peer)  # _send has booked the failure
        fenced_epoch: int | None = None
        for peer, slot in waits:
            timed_out = False
            try:
                message, latency, nbytes = slot.wait()
            except TimeoutError:
                timed_out = True
            except ConnectionError:
                pass
            else:
                ledger.messages_received += 1
                ledger.bytes_received += nbytes
                if message.kind == reply_kind:
                    replies.append((peer, message, latency))
                    continue
                if message.meta.get("stale_epoch"):
                    fenced_epoch = message.meta.get("epoch")
            with self._lock:
                self._fail(peer, ledger, timed_out=timed_out)
            failed.append(peer)
        with self._lock:
            for peer, _ in waits:
                if peer.channel is not None:
                    self._drain_stale(peer, ledger)
        if fenced_epoch is not None:
            self._depose(fenced_epoch, kind)
        return replies, failed

    def heartbeat(self, timeout: float | None = None) -> dict[int, float | None]:
        """Probe every admissible peer with a ``ping`` and collect pongs.

        Returns ``{worker index: round-trip seconds, or None}`` (``None``
        for peers that are down, breaker-blocked, or missed the probe).
        Successful pongs feed the failure detector and close half-open
        breakers — this is the cheap probe path that re-admits a worker
        without risking a full broadcast on it.  Heartbeat traffic
        accumulates in :attr:`heartbeat_traffic`, not in any inference's
        stats.

        A pong that lands *after* its slot's deadline has been booked as
        a timeout is counted stale by the demux — it can no longer
        resurrect a peer whose socket the timeout path already closed
        (the late-pong race the per-call probe threads used to have).
        """
        # A leader ping renews the lease on every worker — the heartbeat
        # loop *is* the lease renewal path.
        pongs, _ = self._round(protocol.PING, protocol.PONG, timeout,
                               self.heartbeat_traffic)
        rtts: dict[int, float | None] = {p.index: None for p in self._peers}
        with self._lock:
            for peer, _, latency in pongs:
                rtts[peer.index] = latency
                # Pongs carry no expert compute: decay the suspicion
                # score but leave the reply-latency EWMA untouched.
                self._credit(peer)
        newest = max((pong.meta.get("epoch") or 0 for _, pong, _ in pongs),
                     default=0)
        if self.epoch is not None and newest > self.epoch:
            self._depose(newest, protocol.PING)
        # Canary probes ride the heartbeat cadence: every ``probe_every``
        # beats the known-answer batch goes out on the same wire.
        if self._prober is not None and self._prober.due():
            self.canary_probe()
        return rtts

    def canary_probe(self, timeout: float | None = None) -> dict[int, str]:
        """Send the known-answer canary batch to every reachable worker.

        Each reply is judged against the golden outputs recorded at
        deploy time (:class:`~repro.distributed.integrity.CanaryProber`).
        Quarantined slots are probed too — consecutive passes are their
        only road back to the gate; a failure re-arms the quarantine and
        retries the auto-redeploy.  Normally fired from
        :meth:`heartbeat` on the ``probe_every`` cadence, but callable
        directly.  Traffic is metered in :attr:`canary_traffic`.

        Returns ``{worker index: outcome}`` where outcome is ``"pass"``,
        ``"readmitted"``, ``"unreachable"``, or the failure reason.
        """
        if self._prober is None:
            raise ValueError(
                "canary_probe() needs integrity=IntegrityConfig(...) and "
                "a canary set (canaries=... or a checkpoint store that "
                "holds one)")
        results, failed = self._round(
            protocol.CANARY, protocol.RESULT,
            timeout if timeout is not None else self.reply_timeout,
            self.canary_traffic, arrays={"x": self._prober.canaries.x})
        outcomes = {peer.index: "unreachable" for peer in failed}
        for peer, message, latency in results:
            with self._lock:
                expected = self._expected_versions.get(peer.index)
            reason = self._prober.evaluate(
                peer.index,
                message.arrays.get("probs"),
                message.arrays.get("entropy"),
                claimed_version=message.meta.get("model_version"),
                expected_version=expected)
            if reason is None:
                with self._lock:
                    # A passing canary is a real forward pass: it closes
                    # half-open breakers and decays suspicion, the same
                    # re-admission probes heartbeats provide.
                    self._credit(peer, latency)
                readmitted = self.quarantine.record_canary_pass(peer.index)
                outcomes[peer.index] = "readmitted" if readmitted else "pass"
                continue
            with self._lock:
                self._distrust(peer)
            outcomes[peer.index] = reason
            self.quarantine.record_canary_failure(peer.index, reason)
            # Every canary failure retries the repair — this *is* the
            # redeploy retry policy for a persistently sick slot.
            self._auto_redeploy(peer)
        return outcomes

    def predict(self, x: np.ndarray) -> np.ndarray:
        preds, _, _ = self.infer(x)
        return preds

    # ---------------------------------------------------------- leadership
    @property
    def deposed(self) -> bool:
        """Has a higher epoch fenced this master off the team?"""
        with self._lock:
            return self._deposed

    def roster(self) -> dict[int, tuple[str, int]]:
        """The current worker roster: ``{team index: address}``."""
        with self._lock:
            return {peer.index: tuple(peer.address) for peer in self._peers}

    def attach(self, timeout: float | None = None) -> dict[int, bool]:
        """Present this master's leadership epoch to every worker.

        The (re-)attach handshake: each reachable worker either accepts
        (its lease now names this master at ``epoch``) or fences us off
        with a ``stale_epoch`` error because it already follows a higher
        epoch — in which case this master is permanently deposed and
        :class:`LeadershipLost` is raised.  Returns ``{worker index:
        attached}`` (False = unreachable or missed the deadline; those
        workers learn the epoch from the next broadcast or heartbeat
        instead).  Traffic is metered with the heartbeats.
        """
        if self.epoch is None:
            raise ValueError("attach() needs a master with a leadership "
                             "epoch (epoch=...)")
        attached, _ = self._round(protocol.ATTACH, protocol.ATTACHED,
                                  timeout, self.heartbeat_traffic)
        acks: dict[int, bool] = {p.index: False for p in self._peers}
        with self._lock:
            for peer, _, _ in attached:
                acks[peer.index] = True
                self._credit(peer)
        # Taking (or re-taking) leadership is a membership event: persist
        # the roster under the new epoch and push the delta to standbys.
        self._roster_changed()
        return acks

    def announce_roster(self, timeout: float | None = 2.0
                        ) -> dict[tuple[str, int], bool]:
        """Push the current worker roster to every registered standby.

        Best-effort, synchronous per standby: dial, send one ``roster``
        message (monotonic ``version`` so an old delta can never
        overwrite a newer one), wait for the ack, close.  Returns
        ``{standby address: acked}``; an unreachable standby is False,
        never an exception — it will hydrate the roster from the
        checkpoint store when it promotes.  Traffic is metered in
        :attr:`redeploy_traffic` (roster deltas are control-plane
        provisioning, like model pushes).
        """
        with self._lock:
            seq = self._next_seq()
            self._roster_version += 1
            message = protocol.encode(protocol.ROSTER, {
                "seq": seq, "epoch": self.epoch,
                "version": self._roster_version,
                "roster": [[peer.index, peer.address[0], peer.address[1]]
                           for peer in self._peers]})
        return {tuple(address): self._push_roster(address, message, seq,
                                                  timeout)
                for address in list(self.standbys)}

    def _push_roster(self, address, message: bytes, seq: int,
                     timeout: float | None) -> bool:
        try:
            sock = self._transport.connect(*address,
                                           timeout=self.connect_timeout)
        except (ConnectionError, OSError):
            return False
        try:
            return exchange(sock, message, seq,
                            timeout).kind == protocol.ROSTER_OK
        except (ConnectionError, OSError, TimeoutError):
            return False
        finally:
            self.redeploy_traffic.merge(sock.stats)
            sock.close()

    def _roster_changed(self) -> None:
        """Membership changed (redeploy): persist the roster and fan the
        delta out to the hot standbys, so a later promotion starts from
        the live team, not a stale snapshot."""
        if self.store is not None and hasattr(self.store, "save_roster"):
            try:
                self.store.save_roster(self.roster(), epoch=self.epoch or 0,
                                       leader=self.leader_id)
            except OSError:
                pass  # durability is best-effort here; deltas still flow
        if self.standbys:
            self.announce_roster()

    def close(self) -> None:
        for peer in self._peers:
            if peer.sock is not None:
                try:
                    peer.sock.send(protocol.encode(protocol.SHUTDOWN))
                except (ConnectionError, OSError):
                    pass
            peer.hang_up()


def deployed_versions(experts: list[Module],
                      integrity: IntegrityConfig | None
                      ) -> dict[int, str] | None:
    """The ``expected_versions`` of a team whose workers are handed
    ``experts[1:]`` directly: fingerprinted from the live experts at
    deploy time, so they are authoritative from the first reply and any
    later weight swap on a worker is fenced.  None without ``integrity``."""
    if integrity is None:
        return None
    return {index: weights_fingerprint(expert)
            for index, expert in enumerate(experts[1:], start=1)}


def deploy_local_team(experts: list[Module],
                      reply_timeout: float | None = None,
                      transport: Transport | None = None, host: str = "127.0.0.1",
                      resilience: ResilienceConfig | None = None,
                      degradation: DegradationPolicy | None = None,
                      engine: str = "tape",
                      integrity: IntegrityConfig | None = None,
                      canaries: CanarySet | None = None,
                      store=None
                      ) -> tuple[TeamNetMaster,
                                 list[ExpertWorker | ForkedWorker]]:
    """Deploy expert 0 as master and the rest as localhost workers.

    ``transport`` selects the fabric.  By default it is real TCP, and
    each worker expert runs in its own forked process
    (:class:`~repro.distributed.forked.ForkedWorker`), so the experts
    compute in parallel instead of taking turns on one interpreter.  A
    given transport (the testkit's
    :class:`repro.testkit.SimTransport`, a tracing wrapper, or a plain
    ``TcpTransport()``) keeps every worker an :class:`ExpertWorker`
    thread of this process.  ``resilience``/``degradation`` configure the
    control plane (breakers, hedging, quorum); see
    :mod:`repro.distributed.resilience`.  ``integrity`` arms the
    data-plane defenses (:mod:`repro.distributed.integrity`); the
    expected model versions are fingerprinted from the live experts at
    deploy time, so a later weight swap on any worker is fenced.  The
    experts must share one parameter dtype, which becomes the team's
    compute and wire dtype (``ValueError`` otherwise).  Callers must
    ``master.close()`` then ``worker.stop()`` when done; a deploy that
    fails part-way stops the workers it started.  The workers' BLAS cap
    also covers the master's local forward.
    """
    if len(experts) < 2:
        raise ValueError("a team needs >= 2 experts")
    team_dtype(experts)
    validate_engine(engine)
    forked = transport is None and hasattr(os, "fork")
    workers = []
    try:
        for expert in experts[1:]:
            if forked:
                worker = ForkedWorker(expert, host=host, engine=engine)
            else:
                worker = ExpertWorker(expert, host=host,
                                      transport=transport, engine=engine)
            workers.append(worker)
            worker.start()
        master = TeamNetMaster(experts[0], [w.address for w in workers],
                               reply_timeout=reply_timeout,
                               transport=transport,
                               resilience=resilience,
                               degradation=degradation,
                               engine=engine,
                               integrity=integrity,
                               canaries=canaries,
                               expected_versions=deployed_versions(
                                   experts, integrity),
                               store=store)
    except BaseException:
        # A half-built team must not keep sockets, serve threads or the
        # BLAS cap alive behind the caller's back.
        for worker in workers:
            worker.stop()
        raise
    return master, workers
