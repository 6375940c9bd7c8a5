import pytest

from bench.tracing import (Span, analyse_serve, analyse_sync, analyse_wire,
                           broadcasts, medians)

PEERS = ("w1", "w2", "w3")


def _broadcast(seq, t0, rows=1, service=(1.0, 2.0, 4.0)):
    """Sends at t0+0..3 (one unit each), each worker receives one unit
    after its send ends, serves, and replies in one unit."""
    spans = []
    for n, (peer, work) in enumerate(zip(PEERS, service)):
        sent = t0 + n + 1
        spans.append(Span("master.send", t0 + n, sent, seq, peer, "infer",
                          rows, 100))
        spans.append(Span("worker.recv", t0 - 50, sent + 1, seq, peer,
                          "infer", rows, 100, trace_us=0.25e6))
        reply = sent + 1 + 0.25 + work
        spans.append(Span("worker.send", reply, reply + 1, seq, peer,
                          "result", rows, 40))
        spans.append(Span("master.recv", t0 - 10, reply + 1, seq, peer,
                          "result", rows, 40))
    return spans


def test_sync_terms_sum_to_the_root_span():
    spans = _broadcast(1, 100.0) + _broadcast(2, 200.0)
    spans.append(Span("master.send", 300, 301, 3, "w1", "infer", 1, 100))
    casts = broadcasts(spans, 3)
    assert [c.seq for c in casts] == [1, 2]      # seq 3 is incomplete
    roots = [Span("root", 99.0, 112.0), Span("root", 198.0, 215.0)]
    terms, linked, closure = analyse_sync(roots, casts, since=150.0)
    assert closure == pytest.approx(0.0, abs=1e-12)
    # only the second root is past warm-up: broadcast 198 -> 203,
    # last reply at 203 + 1 + 0.25 + 4 + 1 = 209.25, finish -> 215
    assert terms["runtime.broadcast_us"] == [pytest.approx(5e6)]
    assert terms["runtime.gather_wait_us"] == [pytest.approx(6.25e6)]
    assert terms["runtime.finish_us"] == [pytest.approx(5.75e6)]
    # self time: sends cover 200..203, reply waits cover 198..209.25
    assert terms["root_self_us"] == [pytest.approx(5.75e6)]
    assert linked[0].name == "root" and len(linked) == 13
    assert all(linked[s.parent].name == "master.send"
               for s in linked if s.name == "worker.recv")
    assert all(linked[s.parent].name == "worker.recv"
               for s in linked if s.name == "worker.send")

    wire = medians(analyse_wire(casts, since=150.0))
    # first reply 202 + 0.25 + 1 + 1 = 204.25, last 209.25
    assert wire["runtime.straggler_gap_us"] == pytest.approx(5e6)
    # service excludes what labelling the recv span cost (0.25)
    assert wire["runtime.worker_service_us"] == pytest.approx(2e6)
    assert wire["transport.master_send_us"] == pytest.approx(1e6)


def test_serve_batches_carry_requests_in_submit_order():
    casts = broadcasts(_broadcast(1, 100.0, rows=2)
                       + _broadcast(2, 120.0, rows=1), 3)
    roots = [Span("root", 95.0, 111.0), Span("root", 97.0, 111.5),
             Span("root", 115.0, 131.0)]
    terms, linked = analyse_serve(roots, casts, since=0.0)
    assert terms["serving.queue_wait_ms"] == pytest.approx(
        [5e3, 3e3, 5e3])
    assert terms["serving.batch_service_ms"] == pytest.approx(
        [9.25e3, 9.25e3])
    assert terms["serving.resolve_ms"] == pytest.approx(
        [1.75e3, 2.25e3, 1.75e3])
    assert sum(s.name == "root" for s in linked) == 3
    # warm-up requests keep the matching aligned but are not reported
    terms, _ = analyse_serve(roots, casts, since=110.0)
    assert terms["serving.queue_wait_ms"] == pytest.approx([5e3])


def test_traced_endpoints_label_both_ends_of_a_connection():
    import threading

    import numpy as np
    from repro.comm import protocol

    from bench.tracing import TracingTransport

    transport = TracingTransport()
    listener = transport.listen()

    def worker():
        with listener.accept(timeout=5.0) as far:
            for _ in range(2):
                seq = protocol.decode(far.recv(5.0)).meta["seq"]
                far.send(protocol.encode(
                    protocol.RESULT, {"seq": seq},
                    {"probs": np.ones((3, 2)), "entropy": np.ones(3)}))

    thread = threading.Thread(target=worker)
    thread.start()
    with transport.connect(*listener.address) as near:
        for seq in (7, 8):
            near.send(protocol.encode(protocol.INFER, {"seq": seq},
                                      {"x": np.zeros((3, 4))}))
            near.recv(5.0)
    thread.join(5.0)
    listener.close()
    assert not thread.is_alive()
    spans = transport.spans
    assert sorted((s.name, s.kind, s.seq, s.rows) for s in spans) == sorted(
        (name, kind, seq, 3) for seq in (7, 8) for name, kind in (
            ("master.send", "infer"), ("worker.recv", "infer"),
            ("worker.send", "result"), ("master.recv", "result")))
    assert len({s.peer for s in spans}) == 1
    send = next(s for s in spans if s.name == "master.send")
    recv = next(s for s in spans if s.name == "worker.recv")
    assert send.nbytes == recv.nbytes and send.seq == recv.seq == 7
