"""Spans at the transport seam, and the per-layer numbers read off them.

``TracingTransport`` is passed through the runtime's existing
``transport=`` argument; nothing under ``src/`` knows it is there.  It
delegates to ``TcpTransport`` and wraps every endpoint that ``connect``
(the master's side) or ``accept`` (a worker's side) returns, recording
one span per ``send``/``recv``.  Frames are decoded with the public
``protocol.decode``, after the clock stops and mostly after the run, to
label each span with its kind and ``seq`` — the identifier all spans of
one broadcast share (see ``TracingTransport.record``).
"""

from __future__ import annotations

import bisect
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from repro.comm import TcpTransport, protocol
from repro.comm.base import Transport

from .stats import median, self_time

#: A frame up to this size is kept by a traced endpoint and decoded after
#: the run (replies: 0.4-6 KB); a larger one is decoded on the spot.
KEEP_BYTES = 1 << 16


@dataclass
class Span:
    name: str            #: "root", "master.send", "worker.recv", ...
    start: float
    end: float
    seq: int | None = None
    peer: str | None = None    #: the worker's listen address, both sides
    kind: str | None = None    #: protocol message kind
    rows: int | None = None
    nbytes: int | None = None
    parent: int | None = None  #: index of the span that caused this one
    trace_us: float = 0.0      #: what labelling this span cost, after ``end``


class _TracedEndpoint:
    def __init__(self, inner, role: str, peer: str, owner):
        self._inner = inner
        self._role = role
        self._peer = peer
        self._owner = owner

    def send(self, payload: bytes) -> None:
        start = time.monotonic()
        self._inner.send(payload)
        self._owner.record(self._role + ".send", self._peer, payload, start,
                           time.monotonic())

    def recv(self, timeout: float | None = None) -> bytes:
        start = time.monotonic()
        payload = self._inner.recv(timeout)
        self._owner.record(self._role + ".recv", self._peer, payload, start,
                           time.monotonic())
        return payload

    def close(self) -> None:
        self._inner.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __getattr__(self, name):   # stats, last_recv_latency_s, ...
        return getattr(self._inner, name)


class _TracedListener:
    def __init__(self, inner, owner):
        self._inner = inner
        self._owner = owner
        self.host, self.port = inner.host, inner.port

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def accept(self, timeout: float | None = None):
        return _TracedEndpoint(self._inner.accept(timeout), "worker",
                               f"{self.host}:{self.port}", self._owner)

    def close(self) -> None:
        self._inner.close()


class TracingTransport(Transport):
    """A ``Transport`` that records a span per framed send and recv."""

    def __init__(self, inner: Transport | None = None):
        self._inner = inner if inner is not None else TcpTransport()
        # Captured as plain tuples of numbers, strings and bytes: unlike
        # objects they drop out of the garbage collector's sight, so a
        # long traced pass does not slow its own collections.
        self._captured: list[tuple] = []
        # The master sends one encoded broadcast to every peer: label the
        # second and third send from the first one's decode.
        self._last: tuple = (None, None)

    def listen(self, host: str = "127.0.0.1", port: int = 0,
               backlog: int = 16):
        return _TracedListener(self._inner.listen(host, port, backlog), self)

    def connect(self, host: str, port: int, retries: int = 50,
                delay: float = 0.05, timeout: float = 10.0):
        inner = self._inner.connect(host, port, retries=retries, delay=delay,
                                    timeout=timeout)
        return _TracedEndpoint(inner, "master", f"{host}:{port}", self)

    def record(self, name, peer, payload, start, end) -> None:
        """One span.  Labelling it (kind, seq, rows) takes a
        ``protocol.decode``, and ten of those per request, run inline by
        threads that hand the interpreter lock to each other, made
        ``sync_mlp_b1`` 25-35 % slower.  So only the master's sends are
        decoded here, once per broadcast; replies are small and are kept
        to be decoded when the run is over; and a worker's recv is
        labelled afterwards from the send it is the far end of."""
        label = None
        if name == "master.send" or (name != "worker.recv"
                                     and len(payload) > KEEP_BYTES):
            label = self._label(payload)
        elif name != "worker.recv":
            label = payload
        self._captured.append((name, start, end, peer, len(payload), label,
                               (time.monotonic() - end) * 1e6))

    def _label(self, payload) -> tuple:
        last = self._last
        if last[0] is payload:
            return last[1]
        try:
            message = protocol.decode(payload)
        except protocol.ProtocolError:
            label = (None, None, None)
        else:
            body = message.arrays.get("x", message.arrays.get("probs"))
            label = (message.kind, message.meta.get("seq"),
                     None if body is None else int(body.shape[0]))
        self._last = (payload, label)
        return label

    @property
    def spans(self) -> list[Span]:
        """Every span, labelled.  A connection delivers frames in order,
        so the k-th frame a worker received from its peer is the k-th the
        master sent to it; the byte counts must agree, and where they do
        not the rest of that connection stays unlabelled."""
        sent = defaultdict(list)
        for name, _, _, peer, nbytes, label, _ in self._captured:
            if name == "master.send":
                sent[peer].append((nbytes, label))
        received = defaultdict(int)
        out = []
        for name, start, end, peer, nbytes, label, trace_us in self._captured:
            if name == "worker.recv":
                k = received[peer]
                if k < len(sent[peer]) and sent[peer][k][0] == nbytes:
                    label = sent[peer][k][1]
                    received[peer] = k + 1
                else:
                    received[peer] = len(sent[peer])   # out of step: stop
                    label = (None, None, None)
            elif not isinstance(label, tuple):
                label = self._label(label)
            kind, seq, rows = label
            out.append(Span(name, start, end, seq, peer, kind, rows, nbytes,
                            None, trace_us))
        return out


@dataclass
class Broadcast:
    """The spans of one ``seq``: the master's sends and reply recvs, and
    each worker's request recv and reply send."""

    seq: int
    rows: int
    master_send: list
    master_recv: list
    worker_recv: dict
    worker_send: dict

    @property
    def first_send_start(self):
        return min(s.start for s in self.master_send)

    @property
    def last_send_end(self):
        return max(s.end for s in self.master_send)

    @property
    def first_reply(self):
        return min(s.end for s in self.master_recv)

    @property
    def last_reply(self):
        return max(s.end for s in self.master_recv)


def broadcasts(spans: list[Span], peers: int) -> list[Broadcast]:
    """Group INFER/RESULT spans by seq, in dispatch order; a seq missing
    any of its ``4 * peers`` spans (the run was cut mid-flight) is left
    out."""
    by_seq: dict = defaultdict(lambda: defaultdict(list))
    for span in spans:
        if span.seq is not None and span.kind in (protocol.INFER,
                                                  protocol.RESULT):
            by_seq[span.seq][span.name].append(span)
    out = []
    for seq in sorted(by_seq):
        group = by_seq[seq]
        if any(len(group[name]) != peers for name in
               ("master.send", "master.recv", "worker.recv", "worker.send")):
            continue
        out.append(Broadcast(
            seq, group["master.send"][0].rows,
            group["master.send"], group["master.recv"],
            {s.peer: s for s in group["worker.recv"]},
            {s.peer: s for s in group["worker.send"]}))
    return out


def _link(root_index: int, cast: Broadcast, out: list[Span]) -> None:
    """Append one broadcast's spans to ``out`` with their parents: master
    spans hang off the root, a worker's recv off the send that caused
    it, its reply send off that recv."""
    send_at = {}
    for span in cast.master_send:
        span.parent = root_index
        send_at[span.peer] = len(out)
        out.append(span)
    for span in cast.master_recv:
        span.parent = root_index
        out.append(span)
    for peer, span in cast.worker_recv.items():
        span.parent = send_at[peer]
        reply = cast.worker_send[peer]
        reply.parent = len(out)
        out.extend((span, reply))


def analyse_sync(roots: list[Span], casts: list[Broadcast],
                 since: float) -> tuple:
    """Per-request runtime terms for a one-caller closed loop.

    Roots do not overlap, so a broadcast belongs to the root whose
    interval holds its first send; roots before ``since`` are warm-up.
    Returns ``(terms, linked, closure)``
    where ``terms`` maps a metric to its samples, ``linked`` is the
    parented span list for the trace file and ``closure`` the worst
    ``|broadcast + gather_wait + finish - root| / root`` seen."""
    starts = [r.start for r in roots]
    terms = defaultdict(list)
    linked: list[Span] = []
    closure = 0.0
    for cast in casts:
        at = bisect.bisect_right(starts, cast.first_send_start) - 1
        if at < 0 or roots[at].end < cast.last_reply \
                or roots[at].start < since:
            continue
        root = roots[at]
        root_index = len(linked)
        linked.append(root)
        _link(root_index, cast, linked)
        broadcast = cast.last_send_end - root.start
        gather = cast.last_reply - cast.last_send_end
        finish = root.end - cast.last_reply
        terms["runtime.broadcast_us"].append(broadcast * 1e6)
        terms["runtime.gather_wait_us"].append(gather * 1e6)
        terms["runtime.finish_us"].append(finish * 1e6)
        terms["root_us"].append((root.end - root.start) * 1e6)
        terms["root_self_us"].append(self_time(
            (root.start, root.end),
            [(s.start, s.end)
             for s in cast.master_send + cast.master_recv]) * 1e6)
        total = root.end - root.start
        closure = max(closure, abs(broadcast + gather + finish - total)
                      / total)
    return terms, linked, closure


def analyse_serve(roots: list[Span], casts: list[Broadcast],
                  since: float) -> tuple:
    """Per-request serving terms.  The dispatcher pops FIFO and every
    request is one row, so the broadcast with ``rows = r`` carries the
    next ``r`` requests in submit order.  ``roots`` must be every
    admitted request since deploy; those before ``since`` only keep the
    matching aligned."""
    terms = defaultdict(list)
    linked: list[Span] = []
    cursor = 0
    for cast in casts:
        carried = roots[cursor:cursor + cast.rows]
        cursor += cast.rows
        if len(carried) < cast.rows:
            break
        if carried[0].start < since:
            continue
        terms["serving.batch_service_ms"].append(
            (cast.last_reply - cast.first_send_start) * 1e3)
        for n, root in enumerate(carried):
            terms["serving.queue_wait_ms"].append(
                (cast.first_send_start - root.start) * 1e3)
            terms["serving.resolve_ms"].append(
                (root.end - cast.last_reply) * 1e3)
            root_index = len(linked)
            linked.append(root)
            if n == 0:
                _link(root_index, cast, linked)
    return terms, linked


def analyse_wire(casts: list[Broadcast], since: float) -> dict:
    """Terms every workload has: send costs, the straggler gap and the
    worker's service time (INFER recv returns to the worker -> RESULT
    send starts; labelling the recv span happens in between and is
    taken back out)."""
    terms = defaultdict(list)
    for cast in casts:
        if cast.first_send_start < since:
            continue
        terms["transport.master_send_us"].extend(
            (s.end - s.start) * 1e6 for s in cast.master_send)
        terms["transport.worker_send_us"].extend(
            (s.end - s.start) * 1e6 for s in cast.worker_send.values())
        terms["runtime.straggler_gap_us"].append(
            (cast.last_reply - cast.first_reply) * 1e6)
        terms["runtime.worker_service_us"].extend(
            (cast.worker_send[peer].start - recv.end) * 1e6 - recv.trace_us
            for peer, recv in cast.worker_recv.items())
    return terms


def medians(terms: dict) -> dict:
    return {name: median(values) for name, values in terms.items() if values}


def trace_document(workload: str, seed: int, linked: list[Span]) -> dict:
    return {"workload": workload, "seed": seed, "clock": "time.monotonic",
            "fields": "parent indexes into spans; seq is shared by every "
                      "span of one broadcast; peer is the worker's listen "
                      "address on both ends of its connection",
            "spans": [asdict(span) for span in linked]}
