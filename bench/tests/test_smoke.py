import json
import subprocess
import sys

from bench import ROOT
from bench.spec import END_TO_END, PER_LAYER, WORKLOADS, applies


def test_smoke_run_answers_everything_and_fills_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(out.read_text())
    assert result["smoke"] and set(result["fingerprint"]) >= {
        "git_sha", "nproc", "cpu_model", "python", "numpy", "blas_env"}
    for workload in WORKLOADS:
        entry = result["workloads"][workload.name]
        assert entry["correct"] and entry["valid"]
        assert entry["end_to_end"]["fail_share"] == 0
        assert entry["per_layer"]["client.wrong"] == 0
        for metric in END_TO_END:
            assert entry["end_to_end"][metric.name] is not None
        for metric in PER_LAYER:
            value = entry["per_layer"][metric.name]
            if metric.name == "client.p99_ms":
                continue    # 2 s of a 30 rps workload cannot support it
            assert (value is not None) == applies(metric, workload), \
                (workload.name, metric.name, value)
        if not workload.serve:
            assert entry["trace_summary"]["closure"] <= 0.01
