#!/usr/bin/env bash
# Tier-1 CI gate: the full test suite with a per-test timeout so a
# regressed gather (or any other hang) fails fast instead of wedging CI.
#
# Usage:
#   scripts/ci.sh [extra pytest args...]     # tier-1 suite
#   scripts/ci.sh --testkit                  # simulation/property suite:
#       runs tests/testkit for each seed in TESTKIT_SEEDS (default "0 1 2"),
#       exporting TESTKIT_SEED per run; failing differential cases leave
#       repro artifacts in TESTKIT_REPRO_DIR (default .testkit-repro/).
#   scripts/ci.sh --chaos                    # chaos soak: long seeded
#       flap/partition/crash-restart storms on the simulated fabric, one
#       soak per seed in CHAOS_SEEDS (default "0 1 2 3"), CHAOS_ROUNDS
#       rounds each (default 60); a failing round writes its fault
#       schedule to CHAOS_REPRO_DIR (default .chaos-repro/).
#   scripts/ci.sh --fastpath                 # hot-path gate: the
#       executor-vs-tape and serving differential suites plus the reply
#       demux, gather-recovery and sim hedging suites (the gather the
#       caller reads itself, on both fabrics) and the serving suite (the
#       future and the submit/dispatcher/collector hand-offs), for each
#       seed in TESTKIT_SEEDS (default "0 1 2"; failing cases leave
#       repro JSONs in TESTKIT_REPRO_DIR).  Speed is the bench's job
#       (--bench), not this gate's.
#   scripts/ci.sh --crash                    # durability soak: seeded
#       kill-during-checkpoint / torn-file / bit-exact-resume rounds, one
#       soak per seed in CRASH_SEEDS (default "0 1 2 3"), CRASH_ROUNDS
#       rounds each (default 25); a failing round writes a JSON repro
#       (seed + round + crash point) to CRASH_REPRO_DIR
#       (default .crash-repro/).
#   scripts/ci.sh --failover                 # master-failover gate: the
#       promotion chaos soak (kill the primary at seeded protocol points
#       mid-traffic; every accepted request must resolve byte-identically
#       to a no-failure run), one soak per seed in FAILOVER_SEEDS
#       (default "0 1 2"), FAILOVER_ROUNDS rounds each (default 10); a
#       failing round writes a JSON repro to FAILOVER_REPRO_DIR (default
#       .testkit-repro/).  Then the recovery-time bench: kill -> detect
#       -> elect -> promote -> re-drive must fit the lease's
#       recovery_budget_s for every lease/latency pairing, writing the
#       sweep to BENCH_failover.json (path override: FAILOVER_BENCH_JSON).
#   scripts/ci.sh --integrity                # data-plane integrity gate:
#       the silent-corruption soak (sharpened experts, live weight
#       bit-flips, stale-version reconnects, tampered wire payloads; the
#       protected master must quarantine, auto-redeploy, and converge
#       back to byte-identical answers), one soak per seed in
#       INTEGRITY_SEEDS (default "0 1 2"), INTEGRITY_ROUNDS rounds each
#       (default 8); a failing round writes a JSON repro to
#       INTEGRITY_REPRO_DIR (default .testkit-repro/).  Then the
#       detection-latency bench: quarantine within DETECT_PROBE_BUDGET
#       canary probes and recovery within RECOVERY_PROBE_BUDGET for
#       every corruption mode, with the unprotected baseline shown
#       diverging on the same schedules; writes BENCH_integrity.json
#       (path override: INTEGRITY_BENCH_JSON).
#   scripts/ci.sh --overload                 # overload-control gate: the
#       seeded virtual-time overload soak (warm 1x / burst 10x / recover
#       1x Poisson arrivals; the protected serving model must keep >= 70%
#       of warm goodput through the burst and recovery, answer within the
#       deadline at p99, and never start service on an expired request,
#       while the unbounded-FIFO baseline queue-collapses on identical
#       arrivals) plus the deadline/shedding unit suites, one run per
#       seed in OVERLOAD_SEEDS (default "0 1 2"), OVERLOAD_ROUNDS soak
#       rounds each (default 3); a failing round writes a JSON repro to
#       OVERLOAD_REPRO_DIR (default .testkit-repro/).  Then the goodput
#       bench, writing both runs' per-phase trajectories to
#       BENCH_overload.json (path override: OVERLOAD_BENCH_JSON).
#   scripts/ci.sh --bench                    # request-path benchmark
#       harness gate: the bench package's own unit tests
#       (python -m pytest bench/tests -q), then one smoke run of all five
#       BENCHMARK.json workloads against the real runtime
#       (python3 -m bench run --smoke) — every answer checked against
#       TeamInference, so a broken request path fails here even when no
#       number is being compared.  A process whose command line still
#       carries "-m bench" after the smoke run exits fails the mode.
#   scripts/ci.sh --examples                 # user-facing entry points:
#       runs every script in examples/ once; any non-zero exit fails, and
#       so does a script that leaves a new ${TMPDIR:-/tmp}/teamnet-ckpt-*
#       directory or a live process carrying its command line behind.
set -euo pipefail
cd "$(dirname "$0")/.."

PER_TEST_TIMEOUT="${PER_TEST_TIMEOUT:-120}"
SUITE_TIMEOUT="${SUITE_TIMEOUT:-1800}"

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# One row per mode: a seeded sweep over test paths, then an optional
# follow-up command.  Columns, '|'-separated:
#   sweep label | PREFIX | default seeds | default repro dir |
#   default rounds | test paths | follow-up label | follow-up
# PREFIX names the knobs: the sweep runs once per seed in ${PREFIX}_SEEDS
# with ${PREFIX}_SEED exported, ${PREFIX}_ROUNDS rounds each, failing
# rounds leaving repro artifacts in ${PREFIX}_REPRO_DIR.  A row without a
# PREFIX runs its test paths once, unseeded; a row without test paths
# runs only its follow-up.  A follow-up under benchmarks/ is one pytest
# file run with its output shown (extra arguments are pytest's, so it
# gets them too); examples/ runs each script in it; anything else is a
# command run as written, and a "python -m MODULE" one must leave no
# process whose command line carries "-m MODULE".
declare -A MODES=(
    [--testkit]="testkit sweep|TESTKIT|0 1 2|.testkit-repro||tests/testkit||"
    [--chaos]="chaos soak|CHAOS|0 1 2 3|.chaos-repro|60|tests/testkit/test_chaos.py||"
    [--fastpath]="fast-path differential|TESTKIT|0 1 2|.testkit-repro||tests/nn/test_executor_differential.py tests/testkit/test_serving_differential.py tests/comm/test_demux.py tests/distributed/test_recovery.py tests/distributed/test_resilience.py tests/distributed/test_serving.py||"
    [--crash]="crash soak|CRASH|0 1 2 3|.crash-repro|25|tests/testkit/test_crash.py||"
    [--failover]="failover soak|FAILOVER|0 1 2|.testkit-repro|10|tests/testkit/test_failover.py|failover bench: recovery within the lease budget|benchmarks/test_bench_failover.py"
    [--integrity]="integrity soak|INTEGRITY|0 1 2|.testkit-repro|8|tests/testkit/test_integrity.py tests/distributed/test_integrity.py|integrity bench: detection within the probe budget|benchmarks/test_bench_integrity.py"
    [--overload]="overload soak|OVERLOAD|0 1 2|.testkit-repro|3|tests/testkit/test_overload.py tests/distributed/test_overload.py|overload bench: goodput floor under a 10x burst|benchmarks/test_bench_overload.py"
    [--bench]="bench harness unit tests|||||bench/tests|bench smoke: all five workloads once, answers checked|python3 -m bench run --smoke"
    [--examples]="||||||examples: every script exits 0 and leaves no checkpoint directory|examples/"
)

# Checkpoint directories an example may create under the temp root,
# sorted for comm(1); an example must remove its own before it exits.
checkpoint_dirs() {
    compgen -G "${TMPDIR:-/tmp}/teamnet-ckpt-*" | sort || true
}

# Fail if a process whose command line contains $1 is still alive.  A
# local team's workers are forked children that carry their parent's
# command line and leave within milliseconds of it (they watch a pipe
# to it), so allow them two seconds.
no_survivors() {
    local left
    for _ in {1..20}; do
        left=$(pgrep -f -- "$1") || return 0
        sleep 0.1
    done
    echo "still running after exit (command line has '$1'):" >&2
    ps -o pid=,args= -p "${left//$'\n'/,}" >&2 || true
    exit 1
}

run_mode() {
    local label prefix seeds repro rounds paths then_label then_cmd
    IFS='|' read -r label prefix seeds repro rounds paths \
        then_label then_cmd <<<"$1"
    shift
    if [[ -n "$prefix" ]]; then
        local seeds_var="${prefix}_SEEDS" repro_var="${prefix}_REPRO_DIR"
        local rounds_var="${prefix}_ROUNDS" note=""
        export "$repro_var=${!repro_var:-$repro}"
        if [[ -n "$rounds" ]]; then
            export "$rounds_var=${!rounds_var:-$rounds}"
            note=" ($rounds_var=${!rounds_var})"
        fi
        for seed in ${!seeds_var:-$seeds}; do
            echo "=== $label: ${prefix}_SEED=$seed$note ==="
            # shellcheck disable=SC2086  # $paths is a word list
            env "${prefix}_SEED=$seed" \
                timeout --signal=INT "$SUITE_TIMEOUT" \
                python -m pytest -x -q $paths \
                --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
        done
    elif [[ -n "$paths" ]]; then
        echo "=== $label ==="
        # shellcheck disable=SC2086
        timeout --signal=INT "$SUITE_TIMEOUT" python -m pytest $paths -q "$@"
    fi
    if [[ -n "$then_cmd" ]]; then
        echo "=== $then_label ==="
        # --per-test-timeout lives in tests/conftest.py and is not loaded
        # outside the tests tree; the outer timeout is the hang backstop.
        if [[ "$then_cmd" == benchmarks/* ]]; then
            timeout --signal=INT "$SUITE_TIMEOUT" \
                python -m pytest -x -q -s "$then_cmd" -p no:cacheprovider "$@"
        elif [[ "$then_cmd" == examples/ ]]; then
            local before leaked
            for example in examples/*.py; do
                echo "--- $example ---"
                before=$(checkpoint_dirs)
                timeout --signal=INT "$SUITE_TIMEOUT" python "$example"
                no_survivors "$example"
                leaked=$(comm -13 <(echo "$before") <(checkpoint_dirs))
                if [[ -n "$leaked" ]]; then
                    echo "$example left behind: $leaked" >&2
                    exit 1
                fi
            done
        else
            # shellcheck disable=SC2086  # a command line, word-split
            timeout --signal=INT "$SUITE_TIMEOUT" $then_cmd
            if [[ "$then_cmd" =~ (-m [^ ]+) ]]; then
                no_survivors "${BASH_REMATCH[1]}"
            fi
        fi
    fi
}

if [[ -n "${1:-}" && -n "${MODES[$1]:-}" ]]; then
    row="${MODES[$1]}"
    shift
    run_mode "$row" "$@"
    exit 0
fi

# The outer `timeout` is the backstop in case a hang happens outside a
# test body (collection, fixtures); the pytest option catches the rest.
exec timeout --signal=INT "$SUITE_TIMEOUT" \
    python -m pytest -x -q --per-test-timeout="$PER_TEST_TIMEOUT" "$@"
