"""What the benchmark measures: workloads, metrics, bounds, run shape.

This table is the benchmark's contract.  ``BENCHMARK.json`` at the repo
root repeats the names, units and bounds for the driver, and
``bench/tests/test_spec.py`` keeps the two in step.  Names are permanent:
later issues cite them.
"""

from __future__ import annotations

from dataclasses import dataclass

TEAM = 4                 #: experts per team (1 master + 3 workers)
#: Distinct seeded inputs per workload.  The CNN pool is smaller because
#: its oracle costs four ~6 ms forwards per input before anything is
#: measured, and CNN timing does not depend on the input values.
POOL = {"mlp": 256, "cnn": 64}
WEIGHTS_SEED = 7         #: expert weights: fixed, separate from --seed
REPLY_TIMEOUT_S = 10.0
#: Discarded before measuring.  Not optional: on a small shared box the
#: first ~2 s of sustained load run ~1.5x faster than steady state.
WARMUP_S = 4.0
TRACE_WARMUP_S = 2.0
#: The measured phase is cut into windows this long.  The headline
#: ``p50_ms``/``p95_ms`` are medians over the windows: this box
#: freezes both cores for 100-400 ms a few times a minute (a second
#: process sees the same gaps), and one freeze moves a pooled open-loop
#: p95 from 19 ms to 300 ms but spoils only the window it falls in.
WINDOW_S = 1.0
SETUP_PROBES = 3         #: cold starts per run; ``setup_s`` is their median
RUN_SECONDS = 15         #: ``run_seconds`` of BENCHMARK.json (measure_s)
SMOKE_SECONDS = 2.0
SMOKE_WARMUP_S = 1.0
REPLAY_CALLS = 2000      #: calls per layer microbench ...
REPLAY_BUDGET_S = 0.4    #: ... or this long, whichever ends first
REPLAY_MIN_CALLS = 30
NEAR_TIE = 1e-9          #: fused serving may differ only inside this gap
SERVE_CONFIG = dict(max_batch=64, max_queue=4096, max_inflight=4,
                    coalesce="fused")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str             #: one line, repeated in BENCHMARK.json
    family: str          #: "mlp" or "cnn"
    rows: int            #: rows per request
    mode: str            #: "sync" (1 caller), "open" (Poisson), "closed"
    rate: float = 0.0    #: open loop: arrivals per second, a fixed number
    outstanding: int = 0  #: closed serving loop: requests kept in flight

    @property
    def serve(self) -> bool:
        return self.mode != "sync"


WORKLOADS = (
    Workload("sync_mlp_b1",
             "closed loop, 1 caller, MLP (1,784): one collaborative "
             "inference, wakeup-bound; isolates transport+demux+runtime "
             "hand-offs",
             "mlp", 1, "sync"),
    Workload("sync_mlp_b64",
             "closed loop, 1 caller, MLP (64,784): 401 KB broadcast "
             "frames, bytes-bound; isolates protocol codec and copies",
             "mlp", 64, "sync"),
    Workload("sync_cnn_b1",
             "closed loop, 1 caller, Shake-Shake-8 (1,3,32,32): "
             "forward-bound; isolates nn.executor and core.inference, "
             "comm changes must not move it",
             "cnn", 1, "sync"),
    Workload("serve_mlp_open1k",
             "open loop, Poisson 1000 rps through master.serve: small "
             "batches, latency is admission->dispatcher->collector "
             "hand-off, not compute",
             "mlp", 1, "open", rate=1000.0),
    Workload("serve_mlp_closed64",
             "closed loop, 64 requests outstanding through master.serve: "
             "batching does the work, rps is the serving capacity",
             "mlp", 1, "closed", outstanding=64),
)
BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str           #: "lower" or "higher"
    bound: float | None = None   #: end-to-end only: allowed worsening
    absolute: bool = False       #: bound is absolute, not a share
    only: str | None = None      #: "sync"/"serve"/"open": where it applies


#: End-to-end metrics, as every result file reports them.  ``fail_share``
#: is 0 on a healthy run, so BENCHMARK.json (whose metrics may never be
#: 0 and whose bounds are shares) carries it as ``failed``/``attempted``
#: on the result line instead; ``compare`` gates it here.
#:
#: The timing bounds are the widest the driver allows, not the 10-15 %
#: first asked for: ten 15 s runs of one commit on this 2-core box spread
#: (q3 - q1 over the median) by 8-19 % on ``p50_ms``, 6-21 % on ``p95_ms``
#: and up to 17 % on ``rps`` (bench/README.md has the tables), and a bound
#: inside the spread gates nothing but noise.
END_TO_END = (
    Metric("p50_ms", "ms", "lower", 0.25),
    Metric("p95_ms", "ms", "lower", 0.25),
    Metric("rps", "1/s", "higher", 0.25),
    Metric("fail_share", "ratio", "lower", 0.001, absolute=True),
    Metric("setup_s", "s", "lower", 0.25),
    # 0.15, not the 0.10 first asked for: ``serve_mlp_open1k`` settles at
    # 67 or at 72 MB from run to run, a spread of up to 8 %.
    Metric("peak_rss_mb", "MB", "lower", 0.15),
)
DRIVER_END_TO_END = tuple(m for m in END_TO_END if not m.absolute)

PER_LAYER = (
    # comm.protocol — replay on the workload's real payloads
    Metric("protocol.encode_request_us", "us", "lower"),
    Metric("protocol.decode_request_us", "us", "lower"),
    Metric("protocol.encode_reply_us", "us", "lower"),
    Metric("protocol.decode_reply_us", "us", "lower"),
    Metric("protocol.request_frame_bytes", "bytes", "lower"),
    Metric("protocol.reply_frame_bytes", "bytes", "lower"),
    # comm.transport
    Metric("transport.master_send_us", "us", "lower"),
    Metric("transport.worker_send_us", "us", "lower"),
    Metric("transport.loopback_rtt_us", "us", "lower"),
    Metric("transport.frames_per_req", "count", "lower"),
    Metric("transport.wire_bytes_per_req", "bytes", "lower"),
    # comm.demux
    Metric("demux.roundtrip_us", "us", "lower"),
    Metric("demux.stale_frames", "count", "lower"),
    # nn.executor
    Metric("executor.run_us", "us", "lower"),
    # core.inference
    Metric("inference.forward_us", "us", "lower"),
    Metric("inference.epilogue_us", "us", "lower"),
    Metric("inference.gate_us", "us", "lower"),
    Metric("inference.team_local_us", "us", "lower"),
    # distributed.integrity
    Metric("integrity.structural_check_us", "us", "lower"),
    # distributed.teamnet_runtime
    Metric("runtime.broadcast_us", "us", "lower", only="sync"),
    Metric("runtime.gather_wait_us", "us", "lower", only="sync"),
    Metric("runtime.finish_us", "us", "lower", only="sync"),
    Metric("runtime.straggler_gap_us", "us", "lower"),
    Metric("runtime.worker_service_us", "us", "lower"),
    Metric("runtime.worker_overhead_us", "us", "lower"),
    Metric("runtime.overhead_us", "us", "lower", only="sync"),
    Metric("runtime.failures", "count", "lower"),
    Metric("runtime.hedged", "count", "lower"),
    Metric("runtime.degraded", "count", "lower"),
    # distributed.serving
    Metric("serving.submit_us", "us", "lower", only="serve"),
    Metric("serving.queue_wait_ms", "ms", "lower", only="serve"),
    Metric("serving.batch_service_ms", "ms", "lower", only="serve"),
    Metric("serving.resolve_ms", "ms", "lower", only="serve"),
    Metric("serving.batches", "count", "lower", only="serve"),
    Metric("serving.mean_batch_requests", "count", "higher", only="serve"),
    Metric("serving.max_batch_requests", "count", "higher", only="serve"),
    Metric("serving.rejected", "count", "lower", only="serve"),
    Metric("serving.failed", "count", "lower", only="serve"),
    Metric("serving.shed_expired", "count", "lower", only="serve"),
    # harness — validity checks, nothing should move them
    Metric("client.p99_ms", "ms", "lower"),
    Metric("client.sent", "count", "higher"),
    Metric("client.answered", "count", "higher"),
    Metric("client.wrong", "count", "lower"),
    Metric("client.late_p99_ms", "ms", "lower", only="open"),
    Metric("client.calib_us", "us", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
)


def applies(metric: Metric, workload: Workload) -> bool:
    """Whether ``metric`` is defined on ``workload``; where it is not,
    the result line still carries it (the driver wants every name) with
    value 0 and the printed table says ``n/a``."""
    if metric.only is None:
        return True
    if metric.only == "serve":
        return workload.serve
    return workload.mode == metric.only
