"""SEA — Scalable, Efficient, Accurate analytics via data-less processing.

A full reproduction of the system envisioned in

    Peter Triantafillou, "Towards Intelligent Distributed Data Systems for
    Scalable Efficient and Accurate Analytics", ICDCS 2018.

Quickstart::

    from repro import (
        ClusterTopology, DistributedStore, ExactEngine, SEAAgent,
        AgentConfig, gaussian_mixture_table, WorkloadGenerator,
        InterestProfile, Count,
    )

    topo = ClusterTopology.single_datacenter(8)
    store = DistributedStore(topo)
    table = gaussian_mixture_table(50_000, dims=("x0", "x1"), seed=1, name="data")
    store.put_table(table, partitions_per_node=2)

    agent = SEAAgent(ExactEngine(store), AgentConfig(training_budget=300))
    profile = InterestProfile.from_table(table, ("x0", "x1"), 4, seed=2)
    workload = WorkloadGenerator("data", ("x0", "x1"), profile, aggregate=Count())
    for query in workload.batch(1000):
        record = agent.submit(query)   # record.mode: train|predicted|fallback

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
experiment catalogue.
"""

from repro.common import CostMeter, CostRates, CostReport
from repro.cluster import ClusterTopology, DistributedStore
from repro.data import (
    Table,
    gaussian_mixture_table,
    uniform_table,
    scored_relation,
    table_with_missing,
    InterestProfile,
    WorkloadGenerator,
)
from repro.queries import (
    AnalyticsQuery,
    parse_query,
    RangeSelection,
    RadiusSelection,
    KNNSelection,
    Count,
    Sum,
    Mean,
    Std,
    Median,
    Quantile,
    Correlation,
    RegressionCoefficients,
)
from repro.engine import (
    BDASStack,
    ResourceManager,
    MapReduceEngine,
    CoordinatorEngine,
)
from repro.core import (
    SEAAgent,
    AgentConfig,
    AnswerCache,
    DatalessPredictor,
    QuerySpaceQuantizer,
    Polystore,
    PolystoreSystem,
)
from repro.baselines import (
    ExactEngine,
    SamplingAQPEngine,
    SegmentStatsCache,
    DBLEngine,
)
from repro.bigdataless import (
    DistributedGridIndex,
    RankJoinBaseline,
    IndexedRankJoin,
    KNNBaseline,
    CoordinatorKNN,
    GraphStore,
    SubgraphMatcher,
    SemanticGraphCache,
    MapReduceImputer,
    SurgicalKNNImputer,
    AdHocMLEngine,
)
from repro.optimizer import (
    TaskFeatures,
    ExecutionAlternative,
    AlternativeSet,
    ExecutionLog,
    CostModelSelector,
    LearnedSelector,
)
from repro.explain import (
    Explanation,
    ExplanationBuilder,
    ThresholdRegionQuery,
    HigherLevelEngine,
)
from repro.faults import (
    CrashWindow,
    DegradedAnswer,
    FailoverPolicy,
    FaultInjector,
    FaultSchedule,
    InjectionPlan,
    NodeUnavailableError,
    PartitionLostError,
    TransientReadError,
)
from repro.common.errors import RecoveryError, WriteCrashError, WriteError
from repro.geo import GeoSites, EdgeAgent, CoreCoordinator, GeoRouter
from repro.ingest import IngestConfig, IngestPipeline, RecoveryReport
from repro.obs import (
    AccuracyDriftMonitor,
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    NULL_OBSERVER,
    Observer,
    QueryProfile,
    SLOMonitor,
    SLOPolicy,
    SLOTarget,
    StackObserver,
    TraceRecorder,
)
from repro.serve import (
    AdmissionRejectedError,
    GatewayAnswer,
    GatewayClosedError,
    GatewayConfig,
    GatewayFailedError,
    ServingGateway,
    TenantHandle,
)
from repro.session import SEASession, SessionAnswer

__version__ = "1.0.0"

__all__ = [
    "CostMeter",
    "CostRates",
    "CostReport",
    "ClusterTopology",
    "DistributedStore",
    "Table",
    "gaussian_mixture_table",
    "uniform_table",
    "scored_relation",
    "table_with_missing",
    "InterestProfile",
    "WorkloadGenerator",
    "AnalyticsQuery",
    "parse_query",
    "RangeSelection",
    "RadiusSelection",
    "KNNSelection",
    "Count",
    "Sum",
    "Mean",
    "Std",
    "Median",
    "Quantile",
    "Correlation",
    "RegressionCoefficients",
    "BDASStack",
    "ResourceManager",
    "MapReduceEngine",
    "CoordinatorEngine",
    "SEAAgent",
    "AgentConfig",
    "AnswerCache",
    "DatalessPredictor",
    "QuerySpaceQuantizer",
    "Polystore",
    "PolystoreSystem",
    "ExactEngine",
    "SamplingAQPEngine",
    "SegmentStatsCache",
    "DBLEngine",
    "DistributedGridIndex",
    "RankJoinBaseline",
    "IndexedRankJoin",
    "KNNBaseline",
    "CoordinatorKNN",
    "GraphStore",
    "SubgraphMatcher",
    "SemanticGraphCache",
    "MapReduceImputer",
    "SurgicalKNNImputer",
    "AdHocMLEngine",
    "TaskFeatures",
    "ExecutionAlternative",
    "AlternativeSet",
    "ExecutionLog",
    "CostModelSelector",
    "LearnedSelector",
    "Explanation",
    "ExplanationBuilder",
    "ThresholdRegionQuery",
    "HigherLevelEngine",
    "CrashWindow",
    "DegradedAnswer",
    "FailoverPolicy",
    "FaultInjector",
    "FaultSchedule",
    "InjectionPlan",
    "NodeUnavailableError",
    "PartitionLostError",
    "TransientReadError",
    "IngestConfig",
    "IngestPipeline",
    "RecoveryError",
    "RecoveryReport",
    "WriteCrashError",
    "WriteError",
    "GeoSites",
    "EdgeAgent",
    "CoreCoordinator",
    "GeoRouter",
    "AccuracyDriftMonitor",
    "EventLog",
    "FlightRecorder",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "Observer",
    "QueryProfile",
    "SLOMonitor",
    "SLOPolicy",
    "SLOTarget",
    "StackObserver",
    "TraceRecorder",
    "AdmissionRejectedError",
    "GatewayAnswer",
    "GatewayClosedError",
    "GatewayConfig",
    "GatewayFailedError",
    "ServingGateway",
    "TenantHandle",
    "SEASession",
    "SessionAnswer",
    "__version__",
]
