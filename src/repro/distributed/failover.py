"""Master failover: hot standbys, lease-based promotion, request re-drive.

The TeamNet master (Section III's aggregation node) is a single point of
failure: when it dies mid-traffic, every queued and in-flight request
dies with it.  This module removes that failure mode with three layers,
none of which change the worker protocol beyond the leadership epoch
already carried on broadcasts:

* :class:`StandbyMaster` — a warm spare that mirrors everything needed
  to take over: the master expert (hydrated from the
  :class:`~repro.store.CheckpointStore` or given directly), the worker
  roster (initial snapshot + incremental ``roster`` deltas the primary
  pushes on every membership change), and the leadership epoch observed
  on the wire.  ``poll()`` sends *observer* pings to the roster workers
  — pongs report who leads, at which epoch, and how stale the claim is
  — and :meth:`LeaseView.leader_lost` is True exactly when every
  reachable worker's lease has outlived
  :class:`~repro.distributed.resilience.LeaseConfig.duration_s`.
* :class:`TransportRing` — the four-method communicator shape
  (``rank``/``size``/``send``/``recv``) over framed transport
  connections, so the stock Chang–Roberts
  :func:`~repro.distributed.election.elect_leader` chooses among
  standbys unchanged: tokens travel as ``elect`` messages tagged with
  the (contested-epoch-namespaced) election tag.
* :class:`FailoverServer` — the client-side re-drive layer.  Every
  submission gets a stable monotonically-increasing request id and an
  *outer* future; inner futures from the current
  :class:`~repro.distributed.serving.TeamNetServer` settle it through a
  done-callback.  An inner failure in :data:`REDRIVE_ERRORS` (or *any*
  failure while the old master is known dead) parks the request instead
  of failing it; :meth:`FailoverServer.failover_to` re-submits the
  parked requests to the promoted master's server **in request-id
  order**.  The outer future resolves exactly once — a late answer from
  the old master that races its own re-drive is counted as a suppressed
  duplicate, never delivered twice and never dropped silently.

What is guaranteed: every accepted request resolves (an answer or a
typed error); no request is answered twice; with identical experts on
both sides of the failover, re-driven answers are byte-identical to a
no-failure run (the expert forward is deterministic and coalescing is
bit-exact).  What is *not*: answers may come out of submission order
across the failover window, and a request whose broadcast the dying
master already served may complete on the old epoch — the fencing only
rejects broadcasts arriving *after* a worker saw the higher epoch.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

import numpy as np

from ..comm import protocol
from ..comm.demux import ChannelDead, exchange
from ..comm.server import FrameServer
from ..comm.transport import TcpTransport
from .election import elect_leader
from .overload import RetryBudget
from .resilience import LeaseConfig
from .serving import ServeFuture, ServerClosed, TeamNetServer
from .teamnet_runtime import LeadershipLost, TeamNetMaster

__all__ = ["MasterFailover", "REDRIVE_ERRORS", "LeaseView", "WorkerView",
           "TransportRing", "StandbyMaster", "FailoverStats",
           "FailoverServer"]


class MasterFailover(ConnectionError):
    """The master serving this request died; the request is being (or
    must be) re-driven to its successor."""


#: Inner-request failures that mean "the *master* is gone, the request
#: is fine" — these park the request for re-drive instead of failing it.
#: Deliberately excludes :class:`~.teamnet_runtime.WorkerFailure`: a
#: worker dying is an answer-quality event the degradation policy owns,
#: not a leadership event, and re-driving it to the same team would just
#: fail again.
REDRIVE_ERRORS = (MasterFailover, LeadershipLost, ServerClosed, ChannelDead)


# --------------------------------------------------------------------------
# Lease observation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerView:
    """One worker's answer to an observer ping."""

    index: int
    reachable: bool
    leader: str | None = None
    epoch: int = 0
    lease_age_s: float | None = None


@dataclass(frozen=True)
class LeaseView:
    """Aggregate leadership view from one :meth:`StandbyMaster.poll`.

    ``leader_lost`` is the promotion trigger: at least one worker was
    reachable and *every* reachable worker's lease has expired under the
    configured ``duration_s`` (a never-renewed lease counts expired).
    An unreachable worker contributes nothing — a partitioned standby
    that can reach no workers must not promote itself on silence alone.
    """

    workers: dict[int, WorkerView]
    duration_s: float

    @property
    def reachable(self) -> list[int]:
        return [i for i, w in self.workers.items() if w.reachable]

    @property
    def max_epoch(self) -> int:
        return max((w.epoch for w in self.workers.values() if w.reachable),
                   default=0)

    @property
    def leader(self) -> str | None:
        """The highest-epoch reachable worker's leader name."""
        best = None
        for w in self.workers.values():
            if w.reachable and (best is None or w.epoch > best.epoch):
                best = w
        return best.leader if best is not None else None

    @property
    def leader_lost(self) -> bool:
        views = [w for w in self.workers.values() if w.reachable]
        if not views:
            return False
        return all(w.lease_age_s is None or w.lease_age_s > self.duration_s
                   for w in views)


# --------------------------------------------------------------------------
# Election over the transport
# --------------------------------------------------------------------------

class TransportRing:
    """Ring communicator over framed transport connections.

    Presents ``rank``/``size``/``send``/``recv`` so
    :func:`~repro.distributed.election.elect_leader` runs among
    standbys exactly as it does over MPI.  ``send`` frames the token as
    an ``elect`` message over a cached connection to the destination's
    listener; inbound tokens are fed by the owner's serve loop via
    :meth:`deliver` into per-tag queues that ``recv`` drains.  Because
    tags are epoch-and-hop namespaced, ``recv`` keys on the tag alone
    (the ring topology fixes the sender anyway).  Connections are cached
    per destination — re-dialing between hops could race a token already
    in flight on the old connection.
    """

    def __init__(self, transport, rank: int,
                 members: list[tuple[str, int]],
                 recv_timeout: float | None = 10.0,
                 connect_timeout: float = 1.0):
        if not 0 <= rank < len(members):
            raise ValueError(f"rank {rank} outside ring of {len(members)}")
        self.rank = rank
        self.size = len(members)
        self.members = [tuple(m) for m in members]
        self.recv_timeout = recv_timeout
        self.connect_timeout = connect_timeout
        self._transport = transport
        self._conns: dict[int, object] = {}
        self._inbox: dict[str, queue.Queue] = {}
        self._lock = threading.Lock()

    def _queue_for(self, tag: str) -> queue.Queue:
        with self._lock:
            q = self._inbox.get(tag)
            if q is None:
                q = self._inbox[tag] = queue.Queue()
            return q

    def send(self, array: np.ndarray, dest: int, tag: str) -> None:
        with self._lock:
            sock = self._conns.get(dest)
        if sock is None:
            sock = self._transport.connect(*self.members[dest], retries=3,
                                           delay=0.01,
                                           timeout=self.connect_timeout)
            with self._lock:
                self._conns[dest] = sock
        sock.send(protocol.encode(
            protocol.ELECT, {"tag": tag},
            {"data": np.asarray(array, dtype=float)}))

    def deliver(self, msg: protocol.Message) -> None:
        """Route one inbound ``elect`` message (called by the owner's
        serve loop)."""
        tag = msg.meta.get("tag")
        data = msg.arrays.get("data")
        if tag is None or data is None:
            return
        self._queue_for(str(tag)).put(np.asarray(data, dtype=float))

    def recv(self, source: int, tag: str) -> np.ndarray:
        try:
            return self._queue_for(tag).get(timeout=self.recv_timeout)
        except queue.Empty:
            raise TimeoutError(
                f"election token {tag!r} from rank {source} never arrived "
                f"(ring of {self.size})") from None

    def close(self) -> None:
        with self._lock:
            conns, self._conns = dict(self._conns), {}
        for sock in conns.values():
            try:
                sock.close()
            except (ConnectionError, OSError):
                pass


# --------------------------------------------------------------------------
# The standby
# --------------------------------------------------------------------------

class StandbyMaster:
    """A warm spare ready to be promoted to :class:`TeamNetMaster`.

    State mirroring: the master expert comes from ``expert`` or, when a
    ``store`` is attached, from the newest valid checkpoint generation
    (:meth:`hydrate`); the worker roster starts from ``roster`` and/or
    the store's persisted snapshot and is kept current by ``roster``
    deltas the primary pushes (monotonic ``version`` — an old delta can
    never overwrite a newer one).  The highest leadership ``epoch`` seen
    anywhere (roster deltas, worker pongs) is remembered so a promotion
    always claims a strictly higher one.

    The standby listens for: ``roster`` (apply + ack), ``ping``
    (liveness ack for whoever monitors the standby itself), ``elect``
    (fed to the :class:`TransportRing` once :meth:`join_ring` was
    called), ``shutdown``.  Detection is pull-based and owned by the
    caller: ``poll()`` each lease interval, promote when
    ``view.leader_lost`` — keeping the trigger on the caller's clock is
    what makes failover deterministic under the simulated one.
    """

    def __init__(self, name: str, expert=None, store=None,
                 roster: dict[int, tuple[str, int]] | None = None,
                 transport=None, host: str = "127.0.0.1", port: int = 0,
                 lease: LeaseConfig | None = None, clock=None,
                 ping_timeout: float = 0.5, engine: str = "tape"):
        self.name = name
        self.expert = expert
        self.store = store
        self.lease = lease if lease is not None else LeaseConfig()
        self.engine = engine
        self.ping_timeout = ping_timeout
        self._clock = clock
        self._transport = (transport if transport is not None
                           else TcpTransport())
        self._server = FrameServer(self._transport, host, port)
        self._server.register(protocol.ROSTER, self._apply_roster)
        self._server.register(protocol.PING, self._pong)
        self._server.register(protocol.ELECT, self._deliver_token)
        self._roster: dict[int, tuple[str, int]] = \
            {int(i): tuple(a) for i, a in (roster or {}).items()}
        self._roster_version = 0
        self.max_epoch_seen = 0
        #: the epoch the most recent election contested; a win at that
        #: epoch must be claimed at exactly that epoch, even if this
        #: standby itself never observed the previous leadership.
        self.contested_epoch: int | None = None
        self.ring: TransportRing | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------- identity
    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def roster(self) -> dict[int, tuple[str, int]]:
        with self._lock:
            return dict(self._roster)

    # ------------------------------------------------------------ mirroring
    def hydrate(self) -> None:
        """Pull the mirrored state up to date from the checkpoint store:
        the master expert (slot 0) if none is held yet, and the persisted
        roster snapshot (merged under the version rule — a snapshot older
        than deltas already applied is ignored)."""
        if self.store is None:
            return
        if self.expert is None:
            from ..store import NoValidGenerationError  # local: optional dep
            try:
                self.expert, _ = self.store.load_expert(0)
            except NoValidGenerationError:
                pass
        if hasattr(self.store, "load_roster"):
            snapshot = self.store.load_roster()
            if snapshot is not None:
                with self._lock:
                    if snapshot.version > self._roster_version:
                        self._roster = dict(snapshot.roster)
                        self._roster_version = snapshot.version
                    self.max_epoch_seen = max(self.max_epoch_seen,
                                              snapshot.epoch)

    def _apply_roster(self, msg: protocol.Message, sock=None) -> bytes:
        version = int(msg.meta.get("version", 0))
        entries = msg.meta.get("roster", [])
        epoch = msg.meta.get("epoch")
        with self._lock:
            if version > self._roster_version:
                self._roster = {int(i): (str(h), int(p))
                                for i, h, p in entries}
                self._roster_version = version
            if epoch is not None:
                self.max_epoch_seen = max(self.max_epoch_seen, int(epoch))
            acked = self._roster_version
        return protocol.encode(protocol.ROSTER_OK,
                               {"seq": msg.meta.get("seq"),
                                "version": acked})

    def _pong(self, msg: protocol.Message, sock) -> bytes:
        """Liveness ack for whoever monitors the standby itself."""
        return protocol.encode(protocol.PONG, {
            "seq": msg.meta.get("seq"), "standby": self.name})

    def _deliver_token(self, msg: protocol.Message, sock) -> None:
        ring = self.ring
        if ring is not None:
            ring.deliver(msg)

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "StandbyMaster":
        self._server.start()
        return self

    def stop(self) -> None:
        if self.ring is not None:
            self.ring.close()
        self._server.stop()

    # ------------------------------------------------------------ detection
    def poll(self, timeout: float | None = None) -> LeaseView:
        """Observer-ping every roster worker and aggregate their view of
        who leads.  Observer pings carry no epoch, so they never renew or
        fence anything — reading the lease is side-effect free."""
        timeout = timeout if timeout is not None else self.ping_timeout
        views: dict[int, WorkerView] = {}
        for index, address in sorted(self.roster().items()):
            views[index] = self._poll_worker(index, address, timeout)
        for view in views.values():
            if view.reachable:
                self.max_epoch_seen = max(self.max_epoch_seen, view.epoch)
        return LeaseView(workers=views, duration_s=self.lease.duration_s)

    def _poll_worker(self, index: int, address, timeout) -> WorkerView:
        try:
            sock = self._transport.connect(*address, retries=1, delay=0.0,
                                           timeout=timeout)
        except (ConnectionError, OSError):
            return WorkerView(index=index, reachable=False)
        try:
            reply = exchange(sock, protocol.encode(protocol.PING, {"seq": 0}),
                             0, timeout)
            if reply.kind != protocol.PONG:
                return WorkerView(index=index, reachable=False)
            return WorkerView(
                index=index, reachable=True,
                leader=reply.meta.get("leader"),
                epoch=int(reply.meta.get("epoch") or 0),
                lease_age_s=reply.meta.get("lease_age_s"))
        except (ConnectionError, OSError, TimeoutError):
            return WorkerView(index=index, reachable=False)
        finally:
            try:
                sock.close()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------- election
    def join_ring(self, members: list[tuple[str, int]],
                  rank: int | None = None,
                  recv_timeout: float | None = 10.0) -> TransportRing:
        """Wire this standby into the election ring.  ``members`` lists
        every candidate standby's listener address in agreed rank order;
        ``rank`` defaults to this standby's own position in the list."""
        if rank is None:
            rank = self.members_index(members)
        ring = TransportRing(self._transport, rank, members,
                             recv_timeout=recv_timeout)
        self.ring = ring
        return ring

    def members_index(self, members: list[tuple[str, int]]) -> int:
        address = self.address
        for i, member in enumerate(members):
            if tuple(member) == address:
                return i
        raise ValueError(f"{address} is not in the ring member list")

    def elect(self, priority: float | None = None,
              epoch: int | None = None) -> int:
        """Run the Chang–Roberts election over the ring; returns the
        winning rank on every participant.  ``epoch`` namespaces the
        election's message tags — pass the leadership epoch being
        contested (``max_epoch_seen + 1``) so tokens from a previous
        failover's election can never cross-talk into this one."""
        if self.ring is None:
            raise RuntimeError("join_ring() before elect()")
        if epoch is None:
            epoch = self.max_epoch_seen + 1
        self.contested_epoch = epoch
        return elect_leader(self.ring, priority=priority, epoch=epoch)

    # ------------------------------------------------------------ promotion
    def promote(self, epoch: int | None = None,
                standbys: list[tuple[str, int]] | None = None,
                **master_kwargs) -> TeamNetMaster:
        """Become the primary: build a :class:`TeamNetMaster` over the
        mirrored roster at a strictly higher epoch, re-attach every
        worker (fencing off the old primary), register the surviving
        ``standbys`` for roster deltas, and persist the new leadership
        to the store.  Raises :class:`LeadershipLost` if some worker
        already follows an even higher epoch (a rival standby won)."""
        if self.expert is None:
            self.hydrate()
        if self.expert is None:
            raise RuntimeError(
                f"standby {self.name!r} has no expert to serve — give it "
                f"one or attach a checkpoint store")
        roster = self.roster()
        if not roster:
            raise RuntimeError(f"standby {self.name!r} has an empty roster")
        if epoch is None:
            # Claim at least the contested election epoch: a rank that
            # won an election for epoch N must attach at N even when it
            # never itself observed epoch N-1 on the wire.
            epoch = max(self.max_epoch_seen + 1, self.contested_epoch or 0)
        addresses = [address for _, address in sorted(roster.items())]
        master_kwargs.setdefault("transport", self._transport)
        master_kwargs.setdefault("store", self.store)
        master_kwargs.setdefault("engine", self.engine)
        master = TeamNetMaster(self.expert, addresses, epoch=epoch,
                               leader_id=self.name, **master_kwargs)
        if standbys:
            master.standbys = [tuple(a) for a in standbys
                               if tuple(a) != self.address]
        try:
            # A successful attach persists the roster at the new epoch
            # and fans the delta out to the surviving standbys.
            master.attach()
        except LeadershipLost:
            master.close()
            raise
        self.max_epoch_seen = max(self.max_epoch_seen, epoch)
        return master


# --------------------------------------------------------------------------
# Client-side re-drive
# --------------------------------------------------------------------------

@dataclass
class FailoverStats:
    """Cumulative re-drive bookkeeping (a snapshot; see
    :meth:`FailoverServer.stats`)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    redriven: int = 0
    parked: int = 0
    duplicates_suppressed: int = 0
    failovers: int = 0
    #: re-drives refused because the shared retry budget was exhausted
    #: (the request fails fast instead of amplifying load)
    budget_denied: int = 0


class _Tracked:
    __slots__ = ("rid", "x", "outer", "resubmits")

    def __init__(self, rid: int, x: np.ndarray, outer: ServeFuture):
        self.rid = rid
        self.x = x
        self.outer = outer
        self.resubmits = 0


class FailoverServer:
    """Failover-aware submission front for a chain of
    :class:`~repro.distributed.serving.TeamNetServer` incarnations.

    ``submit`` returns an *outer* :class:`ServeFuture` tagged with a
    stable request id; the current incarnation's inner future settles it
    through a done-callback.  When the master dies (:meth:`kill`) the
    old server's queue is rejected without drain and every affected
    request parks; :meth:`failover_to` points at the promoted master's
    server and re-submits the parked requests in request-id order.  The
    outer future resolves exactly once: a late answer racing its own
    re-drive is counted in ``duplicates_suppressed``, not delivered
    twice.  :class:`~repro.distributed.serving.ServerOverloaded` on
    first submission propagates to the caller — admission shedding is
    load control, not failover.
    """

    def __init__(self, server: TeamNetServer | None = None,
                 redrive_errors: tuple = REDRIVE_ERRORS,
                 retry_budget: RetryBudget | None = None):
        self._server = server
        self._redrive_errors = redrive_errors
        # The shared retry token bucket (usually the master's): every
        # re-drive spends one token, and an empty bucket fails the
        # request fast — re-driving a whole backlog at a cluster that is
        # already drowning is the retry-amplification path to metastable
        # failure.  None = unlimited (legacy behaviour).
        self._retry_budget = retry_budget
        self._killed = server is None
        self._rid = 0
        self._tracked: dict[int, _Tracked] = {}
        self._parked: dict[int, _Tracked] = {}
        self._lock = threading.Lock()
        self._stats = FailoverStats()
        self._closed = False

    # ------------------------------------------------------------ admission
    def submit(self, x: np.ndarray) -> ServeFuture:
        x = np.asarray(x)
        with self._lock:
            if self._closed:
                raise ServerClosed("failover server is closed")
            self._rid += 1
            rid = self._rid
            tracked = _Tracked(rid, x, ServeFuture(request_id=rid))
            self._tracked[rid] = tracked
            self._stats.submitted += 1
            server = None if self._killed else self._server
            if server is None:
                self._parked[rid] = tracked
                self._stats.parked += 1
        if server is not None:
            try:
                self._drive(server, tracked)
            except Exception:
                with self._lock:
                    self._tracked.pop(rid, None)
                    self._stats.submitted -= 1
                raise
        return tracked.outer

    def infer(self, x: np.ndarray, timeout: float | None = None):
        return self.submit(x).result(timeout)

    def stats(self) -> FailoverStats:
        with self._lock:
            return FailoverStats(**vars(self._stats))

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(1 for t in self._tracked.values()
                       if not t.outer.done())

    # ------------------------------------------------------------- re-drive
    def _drive(self, server: TeamNetServer, tracked: _Tracked) -> None:
        inner = server.submit(tracked.x, request_id=tracked.rid)
        inner.add_done_callback(
            lambda fut, rid=tracked.rid: self._on_inner(rid, fut))

    def _on_inner(self, rid: int, inner: ServeFuture) -> None:
        value, error = inner.outcome()
        with self._lock:
            tracked = self._tracked.get(rid)
            if tracked is None or tracked.outer.done():
                self._stats.duplicates_suppressed += 1
                return
            if error is None:
                self._tracked.pop(rid, None)
                self._stats.completed += 1
                settle = ("resolve", value)
            else:
                redrive = (isinstance(error, self._redrive_errors)
                           or self._killed) and not self._closed
                if redrive:
                    server = None if self._killed else self._server
                    if server is not None and self._retry_budget is not None \
                            and not self._retry_budget.try_spend():
                        # Budget empty: fail fast with the original error
                        # instead of re-driving into the overload.
                        self._tracked.pop(rid, None)
                        self._stats.failed += 1
                        self._stats.budget_denied += 1
                        settle = ("reject", error)
                    elif server is not None:
                        # The master is already replaced: go straight to
                        # the new incarnation, no parking stop.
                        tracked.resubmits += 1
                        self._stats.redriven += 1
                        settle = ("drive", server)
                    else:
                        self._parked[rid] = tracked
                        self._stats.parked += 1
                        settle = None
                else:
                    self._tracked.pop(rid, None)
                    self._stats.failed += 1
                    settle = ("reject", error)
        if settle is None:
            return
        action, payload = settle
        if action == "resolve":
            tracked.outer._resolve(payload)
        elif action == "reject":
            tracked.outer._reject(payload)
        else:
            try:
                self._drive(payload, tracked)
            except Exception as exc:  # noqa: BLE001 - delivered via future
                with self._lock:
                    self._tracked.pop(rid, None)
                    self._stats.failed += 1
                tracked.outer._reject(exc)

    # ------------------------------------------------------------- failover
    def kill(self, error: BaseException | None = None,
             timeout: float = 10.0, closer=None) -> None:
        """The current master is dead.  Reject its queued requests
        without drain (they park for re-drive); in-flight gathers
        conclude on their own and park when they fail.  Idempotent.

        ``closer()``, when given, runs after the kill window opens and
        before the dead server's queue is rejected — the hook a chaos
        harness uses to sever the dying master's connections at exactly
        the instant where every in-flight failure already reclassifies
        as re-drivable (without it, a gather failing between the sever
        and the ``kill`` call would surface as a terminal error).
        """
        with self._lock:
            server, self._server = self._server, None
            self._killed = True
        if closer is not None:
            closer()
        if server is not None:
            server.close(timeout=timeout, drain=False,
                         error=error if error is not None
                         else MasterFailover("master killed"))

    def failover_to(self, server: TeamNetServer) -> int:
        """Adopt the promoted master's server and re-submit every parked
        request in request-id order.  Returns how many were re-driven.
        A re-submission the new server refuses (e.g. overloaded) fails
        that request's outer future — refusing twice is load shedding,
        not a failover gap."""
        with self._lock:
            if self._closed:
                raise ServerClosed("failover server is closed")
            self._server = server
            self._killed = False
            parked = [self._parked.pop(rid)
                      for rid in sorted(self._parked)]
            self._stats.failovers += 1
        redriven = 0
        for tracked in parked:
            if tracked.outer.done():
                continue
            if (self._retry_budget is not None
                    and not self._retry_budget.try_spend()):
                with self._lock:
                    self._tracked.pop(tracked.rid, None)
                    self._stats.failed += 1
                    self._stats.budget_denied += 1
                tracked.outer._reject(MasterFailover(
                    "retry budget exhausted; re-drive abandoned"))
                continue
            with self._lock:
                tracked.resubmits += 1
                self._stats.redriven += 1
            try:
                self._drive(server, tracked)
                redriven += 1
            except Exception as exc:  # noqa: BLE001 - delivered via future
                with self._lock:
                    self._tracked.pop(tracked.rid, None)
                    self._stats.failed += 1
                tracked.outer._reject(exc)
        return redriven

    # ------------------------------------------------------------ lifecycle
    def close(self, timeout: float = 10.0) -> None:
        """Close the current incarnation (draining it) and fail whatever
        is still parked with :class:`ServerClosed`."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            server, self._server = self._server, None
            parked = [self._parked.pop(rid)
                      for rid in sorted(self._parked)]
        if server is not None:
            server.close(timeout=timeout)
        error = ServerClosed("failover server closed")
        for tracked in parked:
            with self._lock:
                self._tracked.pop(tracked.rid, None)
                self._stats.failed += 1
            tracked.outer._reject(error)

    def __enter__(self) -> "FailoverServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
