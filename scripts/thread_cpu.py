"""Where one bench workload spends CPU: user and sys time per request,
for each thread of the master process and for each forked worker.

    python3 scripts/thread_cpu.py --workload serve_mlp_closed64 --seconds 4

The team is deployed with ``bench.workload.deployed`` and driven by
``bench.loadgen``, exactly as ``python3 -m bench run`` drives it, for a
warm-up and then ``--seconds`` measured seconds.  At both ends of the
measured window the script reads ``utime``/``stime`` of every thread of
this process (``/proc/self/task/<tid>/stat``) and of every child process
(``/proc/<pid>/stat``; the workers are forked children).  Each row is
that CPU divided by the requests answered inside the window; ``busy``
is the share of one core.  The kernel counts CPU in clock ticks
(usually 10 ms), so keep the window to a few seconds at least.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.loadgen import (drive_closed, drive_open,  # noqa: E402
                           drive_sync, poisson_schedule)
from bench.spec import BY_NAME  # noqa: E402
from bench.team import build_experts, make_inputs  # noqa: E402
from bench.workload import deployed  # noqa: E402

TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(stat_path: str) -> tuple[float, float] | None:
    """``(user, sys)`` seconds from a ``/proc`` stat file (None once the
    thread or process is gone)."""
    try:
        with open(stat_path) as f:
            stat = f.read()
    except OSError:
        return None
    # Fields after the parenthesised command name; utime and stime are
    # the 14th and 15th fields of the whole line.
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[11]) * TICK_S, int(fields[12]) * TICK_S


def sample() -> dict[str, tuple[float, float]]:
    """CPU of every master thread (by thread name) and child process."""
    names = {t.native_id: t.name for t in threading.enumerate()}
    tasks = os.listdir("/proc/self/task")
    out: dict[str, tuple[float, float]] = {}
    children: set[int] = set()
    for tid in tasks:
        cpu = cpu_seconds(f"/proc/self/task/{tid}/stat")
        name = names.get(int(tid))
        if cpu is not None and name != "thread-cpu-sampler":
            label = f"thread {name or 'tid ' + tid}"
            if name == "MainThread":
                label += " (load generator)"
            out[label] = cpu
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                children.update(int(pid) for pid in f.read().split())
        except OSError:
            pass
    for pid in sorted(children):
        cpu = cpu_seconds(f"/proc/{pid}/stat")
        if cpu is not None:
            out[f"worker pid {pid}"] = cpu
    return out


def drive(workload, inputs, seed: int, warmup: float, seconds: float):
    """Drive the workload; returns the log and the two CPU samples."""
    samples: list[tuple[float, dict]] = []

    def take():
        samples.append((time.monotonic(), sample()))

    experts = build_experts(workload)
    with deployed(workload, experts) as (master, server):
        origin = time.monotonic()
        since = origin + warmup
        until = since + seconds
        timers = [threading.Timer(at - origin, take) for at in (since, until)]
        for timer in timers:
            timer.name = "thread-cpu-sampler"
            timer.start()
        try:
            if server is None:
                log = drive_sync(master.infer, inputs, since, until)
            elif workload.mode == "open":
                schedule = poisson_schedule(workload.rate, warmup + seconds,
                                            seed)
                log = drive_open(server.submit, inputs, origin, since,
                                 schedule)
            else:
                log = drive_closed(server.submit, inputs,
                                   workload.outstanding, since, until)
        finally:
            for timer in timers:
                timer.join()
    return log, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--warmup", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = BY_NAME[args.workload]
    inputs = make_inputs(workload, args.seed)
    log, samples = drive(workload, inputs, args.seed, args.warmup,
                         args.seconds)
    (start, before), (end, after) = samples
    window = end - start
    answered = sum(start <= done < end for row, done in enumerate(log.done)
                   if row not in log.errors)
    if not answered:
        print("no request was answered in the window", file=sys.stderr)
        return 1
    print(f"{workload.name}: {answered} requests answered in {window:.2f} s "
          f"({answered / window:,.0f} rps)")
    print(f"{'':42} {'user us/req':>11} {'sys us/req':>10} "
          f"{'total':>8} {'busy':>6}")
    totals = {"master": [0.0, 0.0], "workers": [0.0, 0.0]}
    for label in sorted(after, key=lambda k: (k.startswith("worker"), k)):
        user0, sys0 = before.get(label, (0.0, 0.0))
        user, system = after[label][0] - user0, after[label][1] - sys0
        side = totals["workers" if label.startswith("worker") else "master"]
        side[0] += user
        side[1] += system
        if user + system > 0:
            print(row(label, user, system, answered, window))
    for side, (user, system) in totals.items():
        print(row(f"all {side}", user, system, answered, window))
    return 0


def row(label: str, user: float, system: float, answered: int,
        window: float) -> str:
    per = 1e6 / answered
    return (f"{label:42} {user * per:11.1f} {system * per:10.1f} "
            f"{(user + system) * per:8.1f} "
            f"{(user + system) / window * 100:5.0f}%")


if __name__ == "__main__":
    sys.exit(main())
