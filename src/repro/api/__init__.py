"""The canonical public surface of the DynaHash reproduction.

This package is the *client API*: a :class:`Database` session façade handing
out typed :class:`Dataset` handles with fluent verbs, a string-keyed strategy
registry, lifecycle events, and the configuration/report types client code
needs — so applications, examples, and benches import only ``repro.api``::

    from repro.api import ClusterConfig, Database

    with Database(ClusterConfig(num_nodes=4), strategy="dynahash") as db:
        orders = db.create_dataset("orders", primary_key="o_orderkey")
        orders.insert(rows)
        orders.upsert(changed_rows)
        orders.delete([1, 2, 3])
        row = orders.get(1234)
        top = (
            orders.query()
            .filter(lambda r: r["o_totalprice"] > 0)
            .group_by("o_custkey")
            .aggregate(total=("sum", "o_totalprice"))
            .order_by("total", descending=True)
            .limit(10)
            .execute()
        )
        db.on("rebalance.*", lambda event: print(event.name))
        report = db.rebalance(remove=1)
        db.autopilot(policy="cost_aware")  # metrics-driven auto-rebalancing

``Database.attach(cluster)`` wraps an existing :class:`SimulatedCluster`
(the escape hatch for code that builds clusters directly).
"""

from ..cluster.dataset import DatasetSpec, SecondaryIndexSpec
from ..cluster.reports import (
    ClusterRebalanceReport,
    IngestReport,
    QueryReport,
    RebalanceReport,
)
from ..common.config import (
    BucketingConfig,
    ClusterConfig,
    CostModelConfig,
    LSMConfig,
)
from ..common.errors import (
    ClusterError,
    ConfigError,
    FaultInjected,
    MissingPrimaryKeyError,
    QueryError,
    RebalanceError,
    ReproError,
    UnknownDatasetError,
    UnsupportedKeyTypeError,
)
from ..common.reporting import format_table
from ..common.units import GIB, KIB, MIB
from ..control import (
    Autopilot,
    AutopilotDecision,
    AutopilotPolicy,
    ClusterObservation,
    CostAwarePolicy,
    PlanProjection,
    PolicyDecision,
    ScheduledPolicy,
    ThresholdPolicy,
    WhatIfPlanner,
    available_policies,
    policy_by_name,
    register_policy,
    resolve_policy,
)
from ..query.executor import QuerySpec, TableAccess
from ..rebalance.operation import FAULT_SITES
from ..rebalance.recovery import RecoveryOutcome
from ..tpch.queries import q1_plan, q3_plan, q6_plan, query_spec as tpch_query_spec
from .database import Database
from .dataset import Dataset, DeleteReport
from .events import EVENT_NAMES, Event, EventBus, Subscription
from .query import QueryBuilder, QueryResult
from .registry import (
    available_strategies,
    register_strategy,
    resolve_strategy,
    strategy_by_name,
)
from ..metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    PHASE_REBALANCE,
    PHASE_STEADY,
)
from .workloads import (
    DEFAULT_TABLES,
    DISTRIBUTIONS,
    HotspotKeys,
    KeyGenerator,
    LatestKeys,
    OPERATIONS,
    OperationMix,
    Phase,
    PhaseResult,
    Schedule,
    TPCHLoadResult,
    TPCHWorkload,
    UniformKeys,
    WorkloadDriver,
    WorkloadReport,
    WorkloadSpec,
    YCSB_MIXES,
    ZipfianKeys,
    load_tpch,
    make_key_generator,
    make_mix,
    run_workload,
    steady_schedule,
    storm_schedule,
)

__all__ = [
    "Autopilot",
    "AutopilotDecision",
    "AutopilotPolicy",
    "BucketingConfig",
    "ClusterConfig",
    "ClusterError",
    "ClusterObservation",
    "ClusterRebalanceReport",
    "ConfigError",
    "CostAwarePolicy",
    "CostModelConfig",
    "Counter",
    "DEFAULT_TABLES",
    "DISTRIBUTIONS",
    "Database",
    "Dataset",
    "DatasetSpec",
    "DeleteReport",
    "EVENT_NAMES",
    "Event",
    "EventBus",
    "FAULT_SITES",
    "FaultInjected",
    "GIB",
    "Gauge",
    "HotspotKeys",
    "IngestReport",
    "KIB",
    "KeyGenerator",
    "LSMConfig",
    "LatencyHistogram",
    "LatestKeys",
    "MIB",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MissingPrimaryKeyError",
    "OPERATIONS",
    "OperationMix",
    "PHASE_REBALANCE",
    "PHASE_STEADY",
    "Phase",
    "PhaseResult",
    "PlanProjection",
    "PolicyDecision",
    "QueryBuilder",
    "QueryError",
    "QueryReport",
    "QueryResult",
    "QuerySpec",
    "RebalanceError",
    "RebalanceReport",
    "RecoveryOutcome",
    "ReproError",
    "Schedule",
    "ScheduledPolicy",
    "SecondaryIndexSpec",
    "Subscription",
    "TPCHLoadResult",
    "TPCHWorkload",
    "TableAccess",
    "ThresholdPolicy",
    "UniformKeys",
    "UnknownDatasetError",
    "UnsupportedKeyTypeError",
    "WhatIfPlanner",
    "WorkloadDriver",
    "WorkloadReport",
    "WorkloadSpec",
    "YCSB_MIXES",
    "ZipfianKeys",
    "available_policies",
    "available_strategies",
    "format_table",
    "load_tpch",
    "make_key_generator",
    "make_mix",
    "policy_by_name",
    "q1_plan",
    "q3_plan",
    "q6_plan",
    "register_policy",
    "register_strategy",
    "resolve_policy",
    "resolve_strategy",
    "run_workload",
    "steady_schedule",
    "storm_schedule",
    "strategy_by_name",
    "tpch_query_spec",
]
