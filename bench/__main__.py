"""``python3 -m bench run|compare`` — see ``bench/README.md``.

``run`` without ``--workload`` runs all five workloads (each in a fresh
subprocess, untraced then traced) and writes one result file.  With
``--workload`` it runs that one in this process and ends its standard
output with the one-line JSON result the benchmark driver reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import OUT, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run the benchmark")
    run.add_argument("--workload", help="one workload, in this process")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="measured seconds (one workload only)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: replay the layers and run the traced pass")
    run.add_argument("--smoke", action="store_true",
                     help="2 s per workload: does it work, not how fast")
    run.add_argument("--out", type=Path,
                     default=OUT / "result.json",
                     help="result file of a full run")
    probe = commands.add_parser(
        "probe", help="one cold start (what setup_s times); internal")
    probe.add_argument("--workload", required=True)
    probe.add_argument("--seed", type=int, default=0)
    compare = commands.add_parser("compare", help="compare two result files")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        from .report import compare as compare_files
        return 0 if compare_files(args.a, args.b) else 1
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro is missing; the benchmark measures the "
              "runtime in this checkout and cannot run without it",
              file=sys.stderr)
        return 2

    from .spec import BY_NAME, RUN_SECONDS
    if args.command == "run" and args.workload is None:
        from .report import run_all
        return 0 if run_all(args.seed, args.out, args.smoke) else 1
    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(BY_NAME)}")
    workload = BY_NAME[args.workload]

    from . import workload as runner
    if args.command == "probe":
        return 0 if runner.probe_child(workload, args.seed) else 1

    from .report import detail_file, fingerprint, print_run
    detail = runner.run(workload, args.seed,
                        args.seconds if args.seconds else RUN_SECONDS,
                        bool(args.trace), args.smoke)
    detail["fingerprint"] = fingerprint()
    OUT.mkdir(parents=True, exist_ok=True)
    detail_file(workload.name, args.trace).write_text(
        json.dumps(detail, indent=1) + "\n")
    print_run(detail)
    print(json.dumps(runner.result_line(workload, detail)))
    return 0 if detail["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
