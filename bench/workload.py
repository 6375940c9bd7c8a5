"""Run one workload in this process: deploy the real team, drive it,
check every answer, and reduce the records to the named metrics."""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.distributed import (ResilienceConfig, ServerStats,
                               deploy_local_team)

from . import OUT, ROOT
from .loadgen import (Log, drive_closed, drive_open, drive_sync,
                      poisson_schedule)
from .replay import calibrate, replay
from .spec import (DRIVER_END_TO_END, PER_LAYER, REPLY_TIMEOUT_S,
                   SERVE_CONFIG, SETUP_PROBES, SMOKE_SECONDS, SMOKE_WARMUP_S,
                   TEAM, TRACE_WARMUP_S, WARMUP_S, WINDOW_S, Workload, applies)
from .stats import TooFewSamples, median, percentile
from .team import References, build_experts, make_inputs, references
from .tracing import (Span, TracingTransport, analyse_serve, analyse_sync,
                      analyse_wire, broadcasts, medians, trace_document)



def deploy(workload: Workload, experts, transport=None):
    """The system under test: ``(master, workers, server)``; ``server``
    is None for the synchronous workloads."""
    # Hedging off: every answer must come from all four experts to match
    # the oracle (degradation is off), and then a hedge can only turn a
    # scheduler stall into a failed request — at the defaults a peer whose
    # reply EWMA passes 20 ms is cut off after 20 ms.
    master, workers = deploy_local_team(
        experts, reply_timeout=REPLY_TIMEOUT_S, engine="compiled",
        transport=transport, resilience=ResilienceConfig(hedging=False))
    server = master.serve(**SERVE_CONFIG) if workload.serve else None
    return master, workers, server


@contextmanager
def deployed(workload: Workload, experts, transport=None):
    """``deploy`` with its teardown; yields ``(master, server)``."""
    master, workers, server = deploy(workload, experts, transport)
    try:
        yield master, server
    finally:
        if server is not None:
            server.close()
        master.close()
        for worker in workers:
            worker.stop()


def probe_child(workload: Workload, seed: int) -> bool:
    """The body of one setup probe: deploy, compile, answer one request,
    check it against the oracle and say so.  There is no teardown: the
    process exits next, which closes the sockets and ends the (daemon)
    threads, and a graceful stop would only make the run longer."""
    experts = build_experts(workload)
    x = make_inputs(workload, seed)[0]
    refs = references(experts, [x])
    master, _, server = deploy(workload, experts)
    if server is not None:
        preds, winner, _ = server.submit(x).result(REPLY_TIMEOUT_S)
    else:
        preds, winner, _ = master.infer(x)
    ok = bool(refs.correct([0], preds[None], winner[None],
                           tolerant=workload.serve)[0])
    print("ready" if ok else "wrong", flush=True)
    return ok


def probe_setup(workload: Workload, seed: int) -> float:
    """One cold start in a fresh interpreter: seconds from spawning it
    to its first verified answer (imports included)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench", "probe", "--workload", workload.name,
         "--seed", str(seed)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.monotonic() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload.name} failed: "
                           f"{line!r}, exit {proc.returncode}")
    return elapsed


@dataclass
class Phase:
    """One driven interval: the generator's log, and what was measured
    (requests due in ``[log.since, log.since + seconds)``)."""

    log: Log
    seconds: float
    server_stats: tuple | None   #: ServerStats at ``since`` and at the end


def drive(workload: Workload, experts, inputs, seed: int, warmup: float,
          seconds: float, transport=None) -> Phase:
    with deployed(workload, experts, transport) as (master, server):
        origin = time.monotonic()
        since = origin + warmup
        until = since + seconds
        if server is None:
            return Phase(drive_sync(master.infer, inputs, since, until),
                         seconds, None)
        # ServerStats is cumulative: snapshot it where measuring begins.
        at_since = []
        timer = threading.Timer(warmup,
                                lambda: at_since.append(server.stats()))
        timer.start()
        try:
            if workload.mode == "open":
                schedule = poisson_schedule(workload.rate, warmup + seconds,
                                            seed)
                log = drive_open(server.submit, inputs, origin, since,
                                 schedule)
            else:
                log = drive_closed(server.submit, inputs,
                                   workload.outstanding, since, until)
        finally:
            timer.cancel()
            timer.join()
        before = at_since[0] if at_since else ServerStats()
        return Phase(log, seconds, (before, server.stats()))


def _median_of(values) -> float | None:
    values = [v for v in values if v is not None]
    return median(values) if values else None


def _pooled(samples, q: float, min_beyond: int) -> float | None:
    try:
        return percentile(samples, q, min_beyond)
    except TooFewSamples:
        return None


def summarise(workload: Workload, phase: Phase, refs: References,
              strict: bool) -> dict:
    """End-to-end metrics, validity problems and counters of one phase's
    measured interval.  Latency runs from ``due`` (== sent in closed
    loops); a wrong answer is a failure, never dropped silently.

    The headline ``p50_ms``/``p95_ms`` are medians over the ``WINDOW_S``
    windows of the phase (see ``spec.WINDOW_S``); a percentile the pooled
    sample cannot support is refused (None).  ``rps`` is pooled: a count
    over one window is too coarse (27 +- 1 on ``sync_cnn_b1``), and a
    freeze costs a rate only the time it lasts.

    Without ``strict`` (a smoke run: does it work, not how fast) any
    sample supports a percentile and timing cannot make the run
    invalid."""
    min_beyond = 10 if strict else 1
    log = phase.log
    due = log.column("due")
    rows = np.flatnonzero((due >= log.since)
                          & (due < log.since + phase.seconds))
    due = due[rows]
    preds = log.column("preds")[rows]
    answered = preds[:, 0] >= 0
    correct = answered & refs.correct(
        log.column("index")[rows], preds, log.column("winner")[rows],
        tolerant=workload.serve)
    latency = (log.column("done")[rows] - due) * 1e3
    late = (log.column("sent")[rows] - due) * 1e3
    failed = int((~correct).sum())

    count = max(1, round(phase.seconds / WINDOW_S))
    step = phase.seconds / count
    window = np.minimum(((due - log.since) // step).astype(int), count - 1)
    windows = {"p50_ms": [], "p95_ms": [], "rps": [], "late_p99_ms": []}
    for w in range(count):
        inside = window == w
        windows["rps"].append(int(correct[inside].sum()) / step)
        sample = latency[inside & answered]
        for name, q in (("p50_ms", 50), ("p95_ms", 95)):
            windows[name].append(float(np.percentile(sample, q))
                                 if len(sample) else None)
        windows["late_p99_ms"].append(float(np.percentile(late[inside], 99))
                                      if inside.any() else None)
    pooled = {name: _pooled(latency[answered], q, min_beyond)
              for name, q in (("p50_ms", 50), ("p95_ms", 95),
                              ("p99_ms", 99))}
    end_to_end = {name: None if pooled[name] is None
                  else _median_of(windows[name])
                  for name in ("p50_ms", "p95_ms")}
    end_to_end["rps"] = int(correct.sum()) / phase.seconds
    end_to_end["fail_share"] = failed / max(1, len(rows))

    per_request = max(1, int(answered.sum()))
    counters = {
        "client.p99_ms": pooled["p99_ms"],
        "client.sent": len(rows),
        "client.answered": int(answered.sum()),
        "client.wrong": int((answered & ~correct).sum()),
        "transport.frames_per_req": log.counts["frames"] / per_request,
        "transport.wire_bytes_per_req": log.counts["wire_bytes"]
        / per_request,
        "demux.stale_frames": log.counts["stale"],
        "runtime.failures": log.counts["failures"],
        "runtime.hedged": log.counts["hedged"],
        "runtime.degraded": log.counts["degraded"],
    }
    problems = []
    if workload.mode == "open":
        # Judged per window like the headline, so that a freeze of the
        # whole machine is not mistaken for a generator that cannot keep
        # its schedule.
        late_p99 = _median_of(windows["late_p99_ms"])
        counters["client.late_p99_ms"] = late_p99
        p50 = end_to_end["p50_ms"]
        if strict and p50 is not None and late_p99 > p50 / 2:
            problems.append(f"generator lateness p99 {late_p99:.3f} ms "
                            f"exceeds half of p50 {p50:.3f} ms")
    if phase.server_stats is not None:
        before, after = phase.server_stats
        batches = after.batches - before.batches
        served = (after.completed + after.failed
                  - before.completed - before.failed)
        counters.update({
            "serving.batches": batches,
            "serving.mean_batch_requests": served / max(1, batches),
            "serving.max_batch_requests": after.max_batch_requests,
            "serving.rejected": after.rejected - before.rejected,
            "serving.failed": after.failed - before.failed,
            "serving.shed_expired": after.shed_expired - before.shed_expired,
        })
    in_phase = np.zeros(len(log.due), dtype=bool)
    in_phase[rows] = True
    first_error = next((repr(error)
                        for row, error in sorted(log.errors.items())
                        if in_phase[row]), None)
    return {
        "attempted": len(rows), "failed": failed,
        "first_error": first_error, "problems": problems,
        "end_to_end": end_to_end, "pooled": pooled,
        "windows": {name: windows[name]
                    for name in ("p50_ms", "p95_ms", "rps")},
        "counters": counters,
    }


def traced_metrics(workload: Workload, phase: Phase,
                   transport: TracingTransport, seed: int) -> tuple:
    """Span metrics of the traced pass; returns ``(values, summary,
    trace document)``."""
    log = phase.log
    casts = broadcasts(transport.spans, TEAM - 1)
    values = medians(analyse_wire(casts, log.since))
    summary = {"broadcasts": len(casts)}
    if workload.serve:
        # Only admitted requests reach the dispatcher's FIFO.
        roots = [Span("root", sent, done)
                 for row, (sent, done) in enumerate(zip(log.sent, log.done))
                 if row not in log.refused]
        terms, linked = analyse_serve(roots, casts, log.since)
        values.update(medians(terms))
        values["serving.submit_us"] = median(
            [(at - sent) * 1e6 for sent, at in zip(log.sent, log.submitted)
             if sent >= log.since])
    else:
        roots = [Span("root", sent, done)
                 for row, (sent, done) in enumerate(zip(log.sent, log.done))
                 if row not in log.errors]
        terms, linked, closure = analyse_sync(roots, casts, log.since)
        reduced = medians(terms)
        summary.update(closure=closure, root_us=reduced.pop("root_us", None),
                       root_self_us=reduced.pop("root_self_us", None))
        values.update(reduced)
    summary["requests_traced"] = sum(s.name == "root" for s in linked)
    return values, summary, trace_document(workload.name, seed, linked)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    """One run of one workload; returns the run's detail record."""
    warmup = WARMUP_S
    probes = SETUP_PROBES
    if smoke:
        seconds, warmup, probes = SMOKE_SECONDS, SMOKE_WARMUP_S, 1
    calib = [calibrate()]
    experts = build_experts(workload)
    inputs = make_inputs(workload, seed)
    refs = references(experts, inputs)
    detail = {"workload": workload.name, "seed": seed, "trace": trace,
              "smoke": smoke, "warmup_s": warmup,
              # A traced run measures twice (plain, then traced) and
              # replays the layers in between: a third of the time each.
              "measure_s": seconds / 3 if trace and not smoke else seconds}

    setup = None
    if not trace:
        setup = [probe_setup(workload, seed) for _ in range(probes)]
    phase = drive(workload, experts, inputs, seed, warmup,
                  detail["measure_s"], None)
    calib.append(calibrate())
    # Read before the analysis below allocates anything: the peak is the
    # runtime's and the generator's log, not the arithmetic on it.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = summarise(workload, phase, refs, strict=not smoke)
    headline = result["end_to_end"]
    if headline["p50_ms"] is None or (headline["p95_ms"] is None
                                      and not trace):
        raise RuntimeError(
            f"{workload.name}: {result['attempted']} requests in "
            f"{detail['measure_s']:g} s cannot support the percentiles; "
            "measure longer")
    counters = result.pop("counters")
    counters["client.calib_us"] = min(calib)
    detail.update(result)
    if not trace:
        detail["end_to_end"]["setup_s"] = median(setup)
        detail["end_to_end"]["peak_rss_mb"] = peak_rss_mb
        detail["setup_samples"] = setup
        detail["client"] = counters
    else:
        detail["per_layer"] = trace_pass(workload, experts, inputs, refs,
                                         seed, warmup, phase, detail,
                                         counters, strict=not smoke)
    # Two verdicts, kept apart: every answer was right; the timings can be
    # trusted.  A full run and ``compare`` demand both.  The one-workload
    # result line (and exit status) reports the first only: on this box
    # a slow minute of the host starves the open-loop generator in one
    # run out of five, and that is a property of the minute, not a
    # failed operation; the medians the driver takes over ten runs
    # absorb it.
    detail["correct"] = detail["failed"] == 0
    detail["valid"] = not detail["problems"]
    return detail


def trace_pass(workload, experts, inputs, refs, seed, warmup, phase,
               detail, counters, strict: bool) -> dict:
    """Replay the layers, run the traced pass, and fill the per-layer
    table (``None`` where a metric does not apply to this workload)."""
    untraced_p50 = detail["end_to_end"]["p50_ms"]
    rows = workload.rows
    if workload.serve:
        # Codec and forward costs are per frame: replay them at the batch
        # size the server actually formed.
        rows = max(1, round(counters["serving.mean_batch_requests"]))
    x = (inputs[0] if rows == workload.rows
         else np.concatenate(inputs[:rows], axis=0))
    values, calls = replay(experts, x)
    detail["replay_rows"] = rows
    detail["replay_calls"] = calls

    transport = TracingTransport()
    traced = drive(workload, experts, inputs, seed,
                   min(warmup, TRACE_WARMUP_S), detail["measure_s"],
                   transport)
    traced_result = summarise(workload, traced, refs, strict)
    span_values, summary, document = traced_metrics(workload, traced,
                                                    transport, seed)
    values.update(span_values)
    values.update(counters)
    # The traced pass is checked like any other: its failures count.
    detail["attempted"] += traced_result["attempted"]
    detail["failed"] += traced_result["failed"]
    detail["problems"] += [f"traced pass: {p}"
                           for p in traced_result["problems"]]
    if summary.get("closure", 0.0) > 0.01:
        detail["problems"].append(
            f"broadcast + gather_wait + finish misses the root span by "
            f"{summary['closure']:.2%}")
    if not summary["requests_traced"]:
        detail["problems"].append("traced pass matched no request to spans")
    values["trace.overhead_pct"] = (
        (traced_result["end_to_end"]["p50_ms"] - untraced_p50)
        / untraced_p50 * 100.0)
    codec = sum(values[f"protocol.{name}_us"] for name in
                ("encode_request", "decode_request", "encode_reply",
                 "decode_reply"))
    if "runtime.worker_service_us" in values:
        values["runtime.worker_overhead_us"] = (
            values["runtime.worker_service_us"]
            - values["protocol.decode_request_us"]
            - values["inference.forward_us"]
            - values["protocol.encode_reply_us"])
    if not workload.serve:
        values["runtime.overhead_us"] = (
            untraced_p50 * 1e3 - values["transport.loopback_rtt_us"]
            - values["inference.forward_us"] - codec
            - values["inference.gate_us"])
    detail["trace_summary"] = summary
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}.json"
    trace_file.write_text(json.dumps(document))
    detail["trace_file"] = str(trace_file.relative_to(ROOT))
    return {m.name: values.get(m.name) if applies(m, workload) else None
            for m in PER_LAYER}


def result_line(workload: Workload, detail: dict) -> dict:
    """The driver's contract: the last line of standard output."""
    if detail["trace"]:
        metrics = {m.name: {"value": detail["per_layer"][m.name] or 0,
                            "unit": m.unit} for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": detail["end_to_end"][m.name],
                            "unit": m.unit} for m in DRIVER_END_TO_END}
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"], "metrics": metrics}
