"""``repro.distributed`` — distributed inference runtimes.

The TeamNet socket runtime (master/worker, Figure 1(d)) and every baseline
runtime the paper evaluates: MPI-Matrix, MPI-Kernel, MPI-Branch, SG-MoE-G
(RPC) and SG-MoE-M (MPI).  All runtimes are functionally exact — they
reproduce the single-node forward bit-for-bit — and meter their traffic so
the edge simulator can replay it against device/WiFi profiles.
"""

from .failover import (FailoverServer, FailoverStats, LeaseView,
                       MasterFailover, StandbyMaster, TransportRing,
                       WorkerView, REDRIVE_ERRORS)
from .forked import ForkedWorker
from .integrity import (CanaryProber, CanarySet, IntegrityConfig,
                        IntegrityViolation, QuarantineManager,
                        QuarantineRecord, ReplyValidator, make_canary_set,
                        structural_reason)
from .moe_runtime import (MoEGrpcMaster, MoEMpiRunner, moe_mpi_forward,
                          serve_expert)
from .overload import (AdmissionController, BrownoutController,
                       DeadlineExpired, OverloadConfig, RetryBudget,
                       remaining_budget, BROWNOUT_LEVELS)
from .resilience import (CircuitBreaker, DegradationPolicy, LatencyTracker,
                         LeaderLease, LeaseConfig, PeerResilience,
                         QuorumError, ResilienceConfig, SuspicionTracker)
from .mpi_branch import MpiBranchRunner, count_blocks, mpi_branch_forward
from .mpi_kernel import (MpiKernelRunner, count_conv_layers,
                         kernel_split_conv, mpi_kernel_forward)
from .mpi_matrix import (MpiMatrixRunner, mpi_matrix_forward,
                         split_linear_weights)
from .serving import (RequestAbandoned, ServeFuture, ServerClosed,
                      ServerOverloaded, ServerStats, TeamNetServer)
from .teamnet_runtime import (ExpertWorker, InferenceStats, LeadershipLost,
                              TeamNetMaster, WorkerFailure, WorkerHealth,
                              deploy_local_team)

__all__ = [
    "TeamNetMaster", "ExpertWorker", "ForkedWorker", "deploy_local_team",
    "InferenceStats",
    "WorkerFailure", "WorkerHealth", "LeadershipLost",
    "TeamNetServer", "ServeFuture", "ServerStats", "ServerClosed",
    "ServerOverloaded", "RequestAbandoned",
    "MasterFailover", "REDRIVE_ERRORS", "FailoverServer", "FailoverStats",
    "StandbyMaster", "TransportRing", "LeaseView", "WorkerView",
    "CircuitBreaker", "SuspicionTracker", "LatencyTracker",
    "ResilienceConfig", "DegradationPolicy", "QuorumError", "PeerResilience",
    "LeaseConfig", "LeaderLease",
    "OverloadConfig", "AdmissionController", "BrownoutController",
    "RetryBudget", "DeadlineExpired", "remaining_budget", "BROWNOUT_LEVELS",
    "IntegrityConfig", "IntegrityViolation", "ReplyValidator",
    "CanarySet", "make_canary_set", "CanaryProber",
    "QuarantineManager", "QuarantineRecord", "structural_reason",
    "mpi_matrix_forward", "split_linear_weights", "MpiMatrixRunner",
    "mpi_kernel_forward", "kernel_split_conv", "count_conv_layers",
    "MpiKernelRunner", "mpi_branch_forward", "count_blocks",
    "MpiBranchRunner", "serve_expert", "MoEGrpcMaster", "moe_mpi_forward",
    "MoEMpiRunner",
]
