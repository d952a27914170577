"""Tree embeddings: expected distortion, the exact Steiner-free oracle, the
cycle stretch witness, truncated-stretch lower bounds, and randomized
dominating trees."""

from .distortion import (
    DistortionReport,
    TruncatedBoundResult,
    check_expansive,
    cycle_embedding_witness,
    distortion_report,
    expected_distortion,
    stochastic_distortion_of,
    truncated_distortion_bound,
)
from .frt import frt_embed, frt_tree
from .lp import LPResult, solve_min
from .oracle import (
    ORACLE_VERTEX_CAP,
    STEINER_FACTOR,
    OracleResult,
    iter_labeled_trees,
    optimal_tree_weights,
    oracle_min_expected_distortion,
    prufer_to_edges,
)
from .trees import (
    GeodesicTree,
    StochasticTreeEmbedding,
    TreeMap,
    identity_tree_map,
)

__all__ = [
    "DistortionReport",
    "GeodesicTree",
    "LPResult",
    "ORACLE_VERTEX_CAP",
    "OracleResult",
    "STEINER_FACTOR",
    "StochasticTreeEmbedding",
    "TreeMap",
    "TruncatedBoundResult",
    "check_expansive",
    "cycle_embedding_witness",
    "distortion_report",
    "expected_distortion",
    "frt_embed",
    "frt_tree",
    "identity_tree_map",
    "iter_labeled_trees",
    "optimal_tree_weights",
    "oracle_min_expected_distortion",
    "prufer_to_edges",
    "solve_min",
    "stochastic_distortion_of",
    "truncated_distortion_bound",
]
