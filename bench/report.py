"""Result files: what machine produced them, the full five-workload
run that writes one, the printed tables, and ``compare``."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

from . import OUT, ROOT
from .spec import (BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS, SETUP_PROBES,
                   SMOKE_SECONDS, SMOKE_WARMUP_S, WARMUP_S, WINDOW_S, WORKLOADS,
                   applies)
from .stats import median, quartiles, spread

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CALIB_TOLERANCE = 0.10
TIME_UNITS = ("ms", "s", "1/s")   #: what machine speed can move
BLOCKS = 5


def detail_file(workload: str, trace: bool) -> Path:
    """Where ``run --workload`` leaves a run's detail record, for the
    full run to pick up."""
    return OUT / f"run-{workload}-trace{int(trace)}.json"


def fingerprint() -> dict:
    """Where and on what a result was measured."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            sha = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_env": {name: os.environ.get(name) for name in BLAS_ENV}}


def _format(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4f}"


def print_run(detail: dict) -> None:
    """Every metric of one run, by name and unit."""
    workload = BY_NAME[detail["workload"]]
    print(f"== {workload.name}  seed {detail['seed']}  "
          f"measured {detail['measure_s']:g} s after "
          f"{detail['warmup_s']:g} s warm-up  "
          f"attempted {detail['attempted']}  failed {detail['failed']}")
    for metric in END_TO_END:
        if metric.name in detail["end_to_end"]:
            line = (f"  {metric.name:<34}"
                    f"{_format(detail['end_to_end'][metric.name]):>14} "
                    f"{metric.unit}")
            qs = quartiles(detail["windows"].get(metric.name, ()))
            if qs is not None:
                line += (f"   windows q1/median/q3 "
                         f"{qs[0]:.4f}/{qs[1]:.4f}/{qs[2]:.4f}")
            print(line)
    table = detail.get("per_layer") or detail.get("client", {})
    for metric in PER_LAYER:
        if metric.name in table:
            value = table[metric.name] if applies(metric, workload) else None
            print(f"  {metric.name:<34}{_format(value):>14} {metric.unit}")
    for problem in detail["problems"]:
        print(f"  INVALID: {problem}")
    if detail["first_error"]:
        print(f"  first error: {detail['first_error']}")


def run_child(workload: str, seed: int, trace: bool, smoke: bool) -> dict:
    """One workload in a fresh interpreter, so ``setup_s`` and
    ``peak_rss_mb`` are its own.  Returns the child's detail record."""
    command = [sys.executable, "-m", "bench", "run", "--workload", workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS),
               "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False, timeout=600)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    detail = detail_file(workload, trace)
    if not lines or not detail.exists() or done.returncode not in (0, 1):
        raise RuntimeError(f"{workload} (trace {int(trace)}) exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(detail.read_text())


def run_all(seed: int, out: Path, smoke: bool) -> bool:
    """Every workload, untraced then traced, into one result file.
    Returns whether every answer was right and every run valid."""
    result = {
        "schema": 1, "fingerprint": fingerprint(), "seed": seed,
        "smoke": smoke,
        "run": {"measure_s": SMOKE_SECONDS if smoke else RUN_SECONDS,
                "warmup_s": SMOKE_WARMUP_S if smoke else WARMUP_S,
                "traced_s": SMOKE_SECONDS if smoke else RUN_SECONDS / 3,
                "window_s": WINDOW_S,
                "setup_probes": 1 if smoke else SETUP_PROBES},
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        plain = run_child(workload.name, seed, False, smoke)
        traced = run_child(workload.name, seed, True, smoke)
        # Validity counters describe the run the end-to-end numbers came
        # from; everything else per-layer comes from the traced run.
        per_layer = {**traced["per_layer"], **plain["client"],
                     "trace.overhead_pct":
                         traced["per_layer"]["trace.overhead_pct"]}
        result["workloads"][workload.name] = {
            "correct": plain["correct"] and traced["correct"],
            "valid": plain["valid"] and traced["valid"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "problems": plain["problems"] + traced["problems"],
            "end_to_end": plain["end_to_end"],
            "pooled": plain["pooled"],
            "windows": plain["windows"],
            "setup_samples": plain["setup_samples"],
            "per_layer": per_layer,
            "trace_summary": traced["trace_summary"],
            "replay_rows": traced["replay_rows"],
            "replay_calls": traced["replay_calls"],
        }
        ok = ok and all(run["correct"] and run["valid"]
                        for run in (plain, traced))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return ok


def spread_sample(metric, side: dict) -> list:
    """The values whose quartiles are a side's recorded spread: the cold
    starts for ``setup_s``, otherwise the medians of five consecutive
    blocks of the 1 s windows (one window alone is too thin to judge a
    run by: its p50 rests on 27 requests on ``sync_cnn_b1``)."""
    if metric.name == "setup_s":
        return side["setup_samples"]
    values = [v for v in side["windows"].get(metric.name, ())
              if v is not None]
    if len(values) <= BLOCKS:
        return values
    return [median(block) for block in numpy.array_split(values, BLOCKS)]


def verdict(metric, a: dict, b: dict) -> tuple[str, str]:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric)
    pair of two result files, and why."""
    calib_a = a["per_layer"]["client.calib_us"]
    calib_b = b["per_layer"]["client.calib_us"]
    if metric.unit in TIME_UNITS and not (a["valid"] and b["valid"]):
        return "unresolved", "a run whose timings are marked invalid"
    if metric.unit in TIME_UNITS \
            and abs(calib_b - calib_a) / calib_a > CALIB_TOLERANCE:
        return "unresolved", (f"calib_us {calib_a:.2f} vs {calib_b:.2f}: "
                              "machine speed differs")
    spreads = [spread(spread_sample(metric, side)) for side in (a, b)]
    widest = max((s for s in spreads if s is not None), default=None)
    if widest is not None and not metric.absolute and widest > metric.bound:
        return "unresolved", f"spread {widest:.1%} wider than the bound"
    va, vb = a["end_to_end"][metric.name], b["end_to_end"][metric.name]
    worse = (vb - va) if metric.better == "lower" else (va - vb)
    if not metric.absolute:
        worse /= va
    if worse > metric.bound:
        return "regressed", f"worse by {worse:.1%}"
    return "ok", f"{worse:+.1%}"


def compare(path_a: Path, path_b: Path) -> bool:
    """One row per (workload, end-to-end metric).  Returns whether no
    row regressed."""
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    print(f"A {path_a}  sha {a['fingerprint']['git_sha'][:12]}\n"
          f"B {path_b}  sha {b['fingerprint']['git_sha'][:12]}")
    print(f"{'workload':<20}{'metric':<13}{'A':>11}{'B':>11}  "
          f"{'A q1..q3':>21}  {'B q1..q3':>21}  {'bound':>7}  verdict")
    clean = True
    for workload in WORKLOADS:
        wa, wb = a["workloads"][workload.name], b["workloads"][workload.name]
        for metric in END_TO_END:
            word, why = verdict(metric, wa, wb)
            clean = clean and word != "regressed"
            cells = []
            for side in (wa, wb):
                qs = quartiles(spread_sample(metric, side))
                cells.append("-" if qs is None
                             else f"{qs[0]:.3f}..{qs[2]:.3f}")
            bound = (f"{metric.bound:g}abs" if metric.absolute
                     else f"{metric.bound:.0%}")
            print(f"{workload.name:<20}{metric.name:<13}"
                  f"{wa['end_to_end'][metric.name]:>11.4f}"
                  f"{wb['end_to_end'][metric.name]:>11.4f}  "
                  f"{cells[0]:>21}  {cells[1]:>21}  {bound:>7}  "
                  f"{word} ({why})")
    return clean
