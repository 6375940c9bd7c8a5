"""Layer microbenches: each layer's public function timed alone on the
workload's real payloads.  These are the terms the end-to-end latency
is checked against; none of them involves the deployed team."""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.comm import ReplyDemux, TcpTransport, protocol
from repro.core import TeamInference, argmin_select, expert_forward
from repro.distributed import structural_reason
from repro.nn import compile_expert, weights_fingerprint

from .spec import (REPLAY_BUDGET_S, REPLAY_CALLS, REPLAY_MIN_CALLS,
                   REPLY_TIMEOUT_S)
from .stats import median


def sample(*fns, calls: int = REPLAY_CALLS,
           budget_s: float = REPLAY_BUDGET_S,
           min_calls: int = REPLAY_MIN_CALLS) -> np.ndarray:
    """Seconds each of ``fns`` took, called in turn: one row per round,
    one column per function.  ``calls`` rounds, cut short once
    ``budget_s`` has passed (a 3 ms forward cannot be called 2000 times
    inside a run) but never below ``min_calls``."""
    for fn in fns:
        for _ in range(3):
            fn()
    rounds = []
    deadline = time.perf_counter() + budget_s
    while len(rounds) < calls:
        stamps = [time.perf_counter()]
        for fn in fns:
            fn()
            stamps.append(time.perf_counter())
        rounds.append(np.diff(stamps))
        if len(rounds) >= min_calls and stamps[-1] > deadline:
            break
    return np.array(rounds)


def timed(fn, **limits) -> tuple[float, int]:
    """Median microseconds of ``fn()``; returns ``(median_us, calls)``."""
    seconds = sample(fn, **limits)[:, 0]
    return median(seconds) * 1e6, len(seconds)


def calibrate() -> float:
    """Machine-speed canary: median microseconds of a fixed 64x64
    matmul.  Two result files whose canaries differ by more than 10 %
    were not measured on the same machine state.  A run takes it before
    and after the measured phase and keeps the lower: this box runs a
    quarter slower for about one second in five, and a canary that lands
    in such a second says nothing about the run."""
    a = np.random.default_rng(0).standard_normal((64, 64))
    return timed(lambda: a @ a, calls=2000, budget_s=0.2)[0]


@contextmanager
def echo_peer(replies):
    """A connected TCP endpoint whose far end answers the n-th frame it
    receives with ``replies[n]`` — the two-message floor under every
    collaborative inference."""
    transport = TcpTransport()
    listener = transport.listen()

    def serve():
        try:
            with listener.accept(timeout=5.0) as far:
                for reply in replies:
                    far.recv()
                    far.send(reply)
        except (ConnectionError, OSError, TimeoutError):
            return   # the near end hung up: the replay is over

    thread = threading.Thread(target=serve, daemon=True, name="bench-echo")
    thread.start()
    near = transport.connect(*listener.address)
    try:
        yield near
    finally:
        near.close()
        listener.close()
        thread.join(timeout=5.0)


def replay(experts, x: np.ndarray) -> tuple[dict, dict]:
    """Every replay metric on input ``x``; returns ``(values, calls)``."""
    values: dict = {}
    calls: dict = {}

    def measure(name, fn, **kwargs):
        values[name], calls[name] = timed(fn, **kwargs)

    expert = experts[1]
    output = expert_forward(expert, x, engine="compiled")
    outputs = TeamInference(experts, engine="compiled").forward_all(x)
    rows = x.shape[0]
    request_meta = {"seq": 1}
    reply_meta = {"seq": 1, "model_version": weights_fingerprint(expert)}
    reply_arrays = {"probs": output.probs, "entropy": output.entropy}
    request = protocol.encode(protocol.INFER, request_meta, {"x": x})
    reply = protocol.encode(protocol.RESULT, reply_meta, reply_arrays)

    measure("protocol.encode_request_us",
            lambda: protocol.encode(protocol.INFER, request_meta, {"x": x}))
    measure("protocol.decode_request_us", lambda: protocol.decode(request))
    measure("protocol.encode_reply_us",
            lambda: protocol.encode(protocol.RESULT, reply_meta,
                                    reply_arrays))
    measure("protocol.decode_reply_us", lambda: protocol.decode(reply))

    # The epilogue (softmax + entropy) has no public function of its
    # own: it is the forward minus the compiled program's run.  The two
    # are timed in turn, and the difference taken round by round, because
    # it is 0.5 % of a CNN forward whose timing wanders by 10 %.
    compiled = compile_expert(expert, x)
    rounds = sample(lambda: compiled.run(x),
                    lambda: expert_forward(expert, x, engine="compiled"))
    values["executor.run_us"] = median(rounds[:, 0]) * 1e6
    values["inference.forward_us"] = median(rounds[:, 1]) * 1e6
    values["inference.epilogue_us"] = median(rounds[:, 1]
                                             - rounds[:, 0]) * 1e6
    calls["executor.run_us"] = calls["inference.forward_us"] = len(rounds)
    measure("inference.gate_us", lambda: argmin_select(outputs))
    team = TeamInference(experts, engine="compiled")
    measure("inference.team_local_us", lambda: team.predict_with_winner(x))
    measure("integrity.structural_check_us",
            lambda: structural_reason(output.probs, output.entropy, rows))

    with echo_peer(itertools.repeat(reply)) as near:
        def round_trip():
            near.send(request)
            near.recv()
        round_trip()   # one exchange on fresh meters: exact frame sizes
        values["protocol.request_frame_bytes"] = near.stats.bytes_sent
        values["protocol.reply_frame_bytes"] = near.stats.bytes_received
        measure("transport.loopback_rtt_us", round_trip)

    replies = [protocol.encode(protocol.RESULT, {**reply_meta, "seq": seq},
                               reply_arrays)
               for seq in range(REPLAY_CALLS + 3)]
    with echo_peer(replies) as near:
        demux = ReplyDemux(near)
        seqs = itertools.count()

        def demuxed_round_trip():
            slot = demux.expect(next(seqs), REPLY_TIMEOUT_S)
            near.send(request)
            slot.wait()
        measure("demux.roundtrip_us", demuxed_round_trip)
        demux.close()
    values["demux.roundtrip_us"] -= values["transport.loopback_rtt_us"]
    return values, calls
