"""slashpow: measured geodesic s-t graphs, slash powers, and exact
verification of tree-embedding distortion bounds at desk scale."""

from . import embeddings
from .constructions import (
    LaaksoParams,
    LaaksoStructure,
    LaaksoSubgraph,
    MeasuredGraph,
    as_laakso,
    build_cycle,
    build_laakso,
    build_laakso_subgraph,
    build_path,
    cycle_st_graph,
    diamond,
    laakso_from_cycle,
    laakso_measure,
    uniform_laakso,
)
from .core import (
    GeodesicMetric,
    StGraph,
    ValidationReport,
    enumerate_cycles,
    enumerate_st_paths,
    geodesic_metric,
    is_normalized_geodesic_st,
    is_strictly_geodesic_st,
    path_length,
    undirected_st_path_length_range,
    validate_st_graph,
)
from .laakso import (
    BalancedLaaksoWitness,
    LaaksoBase,
    MaxCycles,
    PipelineResult,
    balanced_laakso_pipeline,
    balancing_power,
    count_max_cycles,
    count_max_cycles_through_edge,
    enumerate_max_cycles,
    find_balanced_laakso,
    max_cycle_edge_count,
    selector_identity_sum,
)
from .slash import (
    LabeledPower,
    LazyPowerMetric,
    SlashPower,
    lift_cycle,
    lift_path,
    slash_power,
)

__version__ = "0.1.0"
