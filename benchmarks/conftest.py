"""Shared benchmark configuration.

``BENCH_SCALE`` trades fidelity for runtime: large enough that accuracy
columns are meaningful, small enough that the full benchmark suite runs
in minutes on a laptop CPU.  The heavy artifacts (trained models) are
built once per session in the ``workloads`` fixture and shared by every
benchmark through ``Workloads.shared``.

The virtual-time benches (failover, integrity, overload) record their
sweeps through :func:`write_bench_json`.
"""

import json
import os

import pytest

from repro.experiments import ExperimentScale, Workloads

BENCH_SCALE = ExperimentScale(
    mnist_samples=2400, cifar_samples=800,
    mnist_epochs=12, cifar_epochs=5,
    mlp_width=64, cnn_width=8,
    gate_iterations=25, batch_size=64, seed=7,
)


@pytest.fixture(scope="session")
def workloads():
    return Workloads.shared(BENCH_SCALE)


def write_bench_json(name, payload):
    """Write ``payload`` to ``BENCH_<name>.json`` (or the path in
    ``<NAME>_BENCH_JSON``) and return the path written."""
    path = os.environ.get(f"{name.upper()}_BENCH_JSON", f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path
