"""Extension bench: straggler tolerance of the concurrent gather.

The runtime reads all worker replies simultaneously under one
per-inference deadline, so stragglers cost the master at most one
``reply_timeout`` total.  This bench prices that against the serialized
gather pathology (per-peer budgets that stack) on the paper's edge
profiles, and cross-checks the analytic stall against a real localhost
team with an injected straggler.
"""

import time

import numpy as np

from repro.core import TeamInference
from repro.distributed import DegradationPolicy, deploy_local_team
from repro.edge import (JETSON_TX2_CPU, WIFI, gather_stall_time,
                        profile_model, teamnet_metrics,
                        teamnet_straggler_metrics)
from repro.experiments import ResultTable
from repro.nn import MLP, Module, build_model, downsize, mlp_spec


class _SlowExpert(Module):
    def __init__(self, inner, delay_s):
        super().__init__()
        self.inner = inner
        self.delay_s = delay_s

    def forward(self, x):
        time.sleep(self.delay_s)
        return self.inner(x)


def test_bench_straggler_tolerance(benchmark):
    rng = np.random.default_rng(0)
    team_size = 4
    straggler_s, deadline_s = 5.0, 0.5
    spec = downsize(mlp_spec(8, width=2048), team_size)
    cost = profile_model(build_model(spec, rng), (spec.in_features,))

    healthy = teamnet_metrics(cost, team_size, JETSON_TX2_CPU, WIFI)
    rows = [("healthy team", healthy.latency_s)]
    for stragglers in (1, 2, 3):
        for parallel in (True, False):
            m = teamnet_straggler_metrics(
                cost, team_size, JETSON_TX2_CPU, WIFI,
                straggler_s, deadline_s, num_stragglers=stragglers,
                parallel_gather=parallel)
            rows.append((f"{stragglers} straggler(s), "
                         f"{'parallel' if parallel else 'serial'} gather",
                         m.latency_s))

    # The concurrent collector's stall never exceeds one deadline; the
    # serial one pays per straggler.
    assert gather_stall_time(straggler_s, deadline_s, 3, True) == deadline_s
    assert gather_stall_time(straggler_s, deadline_s, 3, False) \
        == 3 * deadline_s

    # Cross-check on a real localhost team: one injected straggler, wall
    # time bounded by ~one deadline, survivors byte-identical.
    experts = [MLP(16, 4, depth=1, width=8, rng=np.random.default_rng(i))
               for i in range(team_size)]
    wire = [experts[0], experts[1],
            _SlowExpert(experts[2], 3 * deadline_s), experts[3]]
    master, workers = deploy_local_team(
        wire, degradation=DegradationPolicy(min_quorum=1),
        reply_timeout=deadline_s)
    try:
        x = rng.standard_normal((8, 16)).astype(np.float32)

        def degraded_infer():
            start = time.monotonic()
            preds, _, _ = master.infer(x)
            return preds, time.monotonic() - start

        preds, first_elapsed = degraded_infer()
        assert first_elapsed < 2 * deadline_s
        surviving = TeamInference([experts[0], experts[1], experts[3]])
        np.testing.assert_array_equal(preds, surviving.predict(x))
        # Steady state (straggler already dropped): full speed again.
        benchmark(lambda: master.infer(x))
    finally:
        master.close()
        for w in workers:
            w.stop()

    table = ResultTable(
        "Straggler tolerance on Jetson TX2 CPU (K=4, 5s straggler, "
        "0.5s deadline)",
        ["scenario", "master latency (ms)"])
    for name, latency in rows:
        table.add_row(name, latency * 1e3)
    print()
    print(table.render())
