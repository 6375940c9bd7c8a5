"""``repro.edge`` — edge device simulation.

Device profiles (Raspberry Pi 3B+, Jetson TX2 CPU/GPU), a WiFi link model,
an analytic FLOPs/bytes profiler over :mod:`repro.nn` models, and the
per-approach metric estimators that regenerate the paper's tables.
"""

from .cost import DTYPE_BYTES, LayerCost, ModelCost, profile_model
from .loadsim import (LoadReport, capacity_sweep, poisson_arrivals,
                      simulate_queue, sustainable_rate, uniform_arrivals)
from .device import (DEVICES, JETSON_TX2_CPU, JETSON_TX2_GPU,
                     RASPBERRY_PI_3B, DeviceProfile)
from .metrics import (Metrics, RESULT_BYTES, baseline_metrics,
                      gather_stall_time, moe_grpc_metrics, moe_mpi_metrics,
                      mpi_branch_metrics, mpi_kernel_metrics,
                      mpi_matrix_metrics, teamnet_metrics,
                      teamnet_straggler_metrics)
from .monitor import (LatencySummary, measure_latency, measure_peak_memory,
                      overload_table, resilience_table)
from .network import ETHERNET, WIFI, NetworkProfile

__all__ = [
    "DeviceProfile", "RASPBERRY_PI_3B", "JETSON_TX2_CPU", "JETSON_TX2_GPU",
    "DEVICES", "NetworkProfile", "WIFI", "ETHERNET", "profile_model",
    "ModelCost", "LayerCost", "DTYPE_BYTES", "Metrics", "RESULT_BYTES",
    "baseline_metrics", "teamnet_metrics", "teamnet_straggler_metrics",
    "gather_stall_time", "mpi_matrix_metrics",
    "mpi_kernel_metrics", "mpi_branch_metrics", "moe_grpc_metrics",
    "moe_mpi_metrics", "LatencySummary", "measure_latency",
    "measure_peak_memory", "resilience_table", "overload_table",
    "LoadReport",
    "poisson_arrivals",
    "uniform_arrivals", "simulate_queue", "sustainable_rate",
    "capacity_sweep",
]
