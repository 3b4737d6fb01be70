"""Fleet layer: discrete-event, multi-replica serving simulation.

Everything above one node: steppable replicas wrapping the
continuous-batching scheduler, pluggable request routing (including
cost/SLO-aware heterogeneous routing), queue-driven autoscaling with
provisioning lag, and failure handling with requeue accounting. The
deployment question the paper's Section VI costs out — how many SPR
sockets vs. GPUs serve a load within SLO — answered by simulation
instead of ceiling division. Fleets routed by :class:`ShardRouter`
additionally decompose into independent replica groups that
:func:`run_sharded` simulates in worker processes and merges back
deterministically (see :mod:`repro.cluster.shard`).
"""

from repro.cluster.admission import (
    AdmissionScheduler,
    FCFSScheduler,
    VirtualTokenCounterScheduler,
    WeightedServiceCounterScheduler,
    make_scheduler,
)
from repro.cluster.autoscaler import Autoscaler, NodeTemplate
from repro.cluster.config import ClusterConfig, ReplicaSpec
from repro.cluster.events import ClusterEvent
from repro.cluster.fairness import (
    FairnessReport,
    TenantStats,
    fairness_report,
)
from repro.cluster.fluid import (
    ClassReport,
    FluidReport,
    FluidScenario,
    StationReport,
    saturation_rate,
    solve,
    solve_grid,
)
from repro.cluster.metrics import ClusterReport, NodeStats
from repro.cluster.node import ReplicaNode
from repro.cluster.router import (
    JoinShortestQueueRouter,
    LeastOutstandingTokensRouter,
    PhaseAwareRouter,
    RoundRobinRouter,
    Router,
    ShardRouter,
)
from repro.cluster.shard import run_sharded, warm_caches
from repro.cluster.simulator import (
    ClusterSimulator,
    InvalidArrivalError,
    NodeDrain,
    NodeFailure,
)
from repro.cluster.tiering import (
    ClassStats,
    TieredRouter,
    TieringReport,
    TierStats,
    tier_label,
    tiering_report,
)

__all__ = [
    "AdmissionScheduler",
    "Autoscaler",
    "ClassReport",
    "ClusterConfig",
    "ClassStats",
    "ClusterEvent",
    "ClusterReport",
    "ClusterSimulator",
    "FCFSScheduler",
    "FairnessReport",
    "FluidReport",
    "FluidScenario",
    "InvalidArrivalError",
    "StationReport",
    "JoinShortestQueueRouter",
    "LeastOutstandingTokensRouter",
    "NodeDrain",
    "NodeFailure",
    "NodeStats",
    "NodeTemplate",
    "PhaseAwareRouter",
    "ReplicaNode",
    "ReplicaSpec",
    "RoundRobinRouter",
    "Router",
    "ShardRouter",
    "TenantStats",
    "TierStats",
    "TieredRouter",
    "TieringReport",
    "VirtualTokenCounterScheduler",
    "WeightedServiceCounterScheduler",
    "fairness_report",
    "make_scheduler",
    "run_sharded",
    "saturation_rate",
    "solve",
    "solve_grid",
    "tier_label",
    "tiering_report",
    "warm_caches",
]
