"""Geometric stability indices for node-embedding ensembles.

Train the same embedding pipeline N times and the resulting spaces
differ by more than a rotation; this package measures how much. The
headline index reduces each configuration to the mean inner product
over graph edges after centering and normalizing, then reports the
standard deviation of those summaries across the ensemble. Five
comparison indices (Procrustes-aligned cosine, kNN Jaccard,
second-order cosine, Hausdorff, Wasserstein) and seeded synthetic
generators for invariance testing ride along, plus file formats and a
CLI.
"""

__version__ = "0.2.0"

from .alignment import ProcrustesAlignment, procrustes_align
from .baselines import (
    PairwiseIndexReport,
    aligned_cosine_index,
    hausdorff_index,
    knn_jaccard_index,
    knn_neighbors,
    second_order_cosine_index,
    wasserstein_index,
)
from .core import (
    GraphTopology,
    center_normalize_inplace,
    validate_ensemble,
)
from .errors import (
    EmptyGraph,
    GramstabError,
    InstanceTooLarge,
    InternalInvariant,
    KTooLarge,
    ManifestError,
    NonFiniteInput,
    NonFiniteScore,
    NotABijection,
    ParseError,
    ShapeMismatch,
    TooFewConfigs,
    TrailingBytes,
    TruncatedFile,
)
from .fileio import (
    EdgeListResult,
    Manifest,
    load_edge_list,
    load_embeddings,
    load_id_map,
    load_manifest,
    save_edge_list,
    save_embeddings,
    save_manifest,
)
from .ggi import (
    StabilityReport,
    ggi_index,
    score_configuration,
)
from .transforms import (
    apply_permutation,
    perturb_gaussian,
    random_graph,
    random_orthogonal,
    synthetic_ensemble,
)

__all__ = [
    "__version__",
    "EdgeListResult",
    "EmptyGraph",
    "GramstabError",
    "GraphTopology",
    "InstanceTooLarge",
    "InternalInvariant",
    "KTooLarge",
    "Manifest",
    "ManifestError",
    "NonFiniteInput",
    "NonFiniteScore",
    "NotABijection",
    "PairwiseIndexReport",
    "ParseError",
    "ProcrustesAlignment",
    "ShapeMismatch",
    "StabilityReport",
    "TooFewConfigs",
    "TrailingBytes",
    "TruncatedFile",
    "aligned_cosine_index",
    "apply_permutation",
    "center_normalize_inplace",
    "ggi_index",
    "hausdorff_index",
    "knn_jaccard_index",
    "knn_neighbors",
    "load_edge_list",
    "load_embeddings",
    "load_id_map",
    "load_manifest",
    "perturb_gaussian",
    "procrustes_align",
    "random_graph",
    "random_orthogonal",
    "save_edge_list",
    "save_embeddings",
    "save_manifest",
    "score_configuration",
    "second_order_cosine_index",
    "synthetic_ensemble",
    "validate_ensemble",
    "wasserstein_index",
]
