"""Prior stability indices: aligned cosine, kNN-Jaccard, second-order
cosine, Hausdorff, and assignment-based Wasserstein.

All five compare configurations pairwise (unordered pairs l < m, self
pairs excluded) and aggregate by the mean over pairs, averaging over
nodes first where the index is node-wise. None of them preprocess their
inputs by default; pass ``preprocess=True`` to apply the same
center-normalize step the Gram index uses, for controlled comparisons.

scipy is imported inside the functions that call it, so that importing
the package, and every command but ``baseline``, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import procrustes_align
from .core import ConfigurationEnsemble, center_normalize_inplace, matrix_values
from .errors import InstanceTooLarge, KTooLarge, ShapeMismatch

_METRICS = ("cosine", "euclidean")

PAIR_CONVENTION = "unordered pairs l < m, self-pairs excluded"


@dataclass(frozen=True)
class NeighborParams:
    """Neighbor count and similarity metric for kNN-based indices."""

    k: int
    metric: str = "cosine"

    def __post_init__(self):
        if self.k < 1:
            raise KTooLarge(f"k must be >= 1, got {self.k}")
        if self.metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {self.metric!r}")


@dataclass(frozen=True)
class NeighborList:
    """Exact k nearest neighbors per node, most-similar first.

    Ties are broken by ascending node id, so the result is deterministic
    for a fixed input. A node never contains itself.
    """

    indices: np.ndarray  # (node_count, k) int
    k: int
    metric: str


@dataclass(frozen=True)
class PairwiseIndexReport:
    """Scores per unordered configuration pair plus their mean."""

    index_name: str
    per_pair: dict
    aggregate: float
    n_configs: int
    pair_convention: str = PAIR_CONVENTION
    metadata: dict = field(default_factory=dict)


def _unit_rows(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", values, values))
    norms = np.where(norms == 0.0, 1.0, norms)
    return values / norms[:, None]


def _cosine_guarded(a: np.ndarray, b: np.ndarray) -> tuple[float, bool]:
    """Cosine of two vectors; an all-zero vector scores 0 and is flagged."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0, True
    return float(np.dot(a, b) / (na * nb)), False


def _prepared_values(ensemble, preprocess: bool) -> list[np.ndarray]:
    if not isinstance(ensemble, ConfigurationEnsemble):
        ensemble = ConfigurationEnsemble(tuple(ensemble))
    out = []
    for cfg in ensemble.configs:
        values = cfg.values.copy()
        if preprocess:
            center_normalize_inplace(values)
        out.append(values)
    return out


def _require_equal_dims(values: list[np.ndarray], index_name: str) -> None:
    dim = values[0].shape[1]
    for idx, arr in enumerate(values):
        if arr.shape[1] != dim:
            raise ShapeMismatch(
                f"{index_name} requires equal embedding dimensions; config "
                f"{idx} has {arr.shape[1]} columns, expected {dim}",
                config_index=idx,
            )


def _report(index_name, pair_scores, n_configs, metadata) -> PairwiseIndexReport:
    aggregate = float(np.mean([pair_scores[key] for key in sorted(pair_scores)]))
    return PairwiseIndexReport(
        index_name=index_name,
        per_pair=pair_scores,
        aggregate=aggregate,
        n_configs=n_configs,
        metadata=metadata,
    )


def knn_neighbors(mat, params: NeighborParams) -> NeighborList:
    """Exact k nearest neighbors of every node within one configuration.

    Under the cosine metric "nearest" means highest cosine similarity;
    under euclidean, smallest distance. Self is excluded. Ties are
    broken by ascending node id via a stable sort, which is what makes
    downstream neighborhood indices permutation-invariant.
    """
    values = matrix_values(mat)
    n = values.shape[0]
    if not 1 <= params.k < n:
        raise KTooLarge(f"k={params.k} must satisfy 1 <= k < node_count={n}")
    if params.metric == "cosine":
        unit = _unit_rows(values)
        scores = unit @ unit.T
        # Self must sort last: -inf similarity becomes +inf after the
        # negation that turns "most similar first" into an ascending sort.
        np.fill_diagonal(scores, -np.inf)
        indices = np.argsort(-scores, axis=1, kind="stable")[:, :params.k]
    else:
        from scipy.spatial.distance import cdist

        dists = cdist(values, values)
        np.fill_diagonal(dists, np.inf)
        indices = np.argsort(dists, axis=1, kind="stable")[:, :params.k]
    return NeighborList(indices=indices, k=params.k, metric=params.metric)


def knn_jaccard_index(
    ensemble, params: NeighborParams, *, preprocess: bool = False
) -> PairwiseIndexReport:
    """Mean per-node Jaccard overlap of k-neighborhoods across pairs.

    For each node and pair (l, m): |N_k^l n N_k^m| / |N_k^l u N_k^m|,
    averaged over nodes, then over unordered pairs. 1 means identical
    neighborhoods everywhere.
    """
    values = _prepared_values(ensemble, preprocess)
    neighbor_lists = [knn_neighbors(v, params).indices for v in values]
    n_nodes = values[0].shape[0]
    pair_scores: dict[tuple[int, int], float] = {}
    for l in range(len(values)):
        for m in range(l + 1, len(values)):
            nl, nm = neighbor_lists[l], neighbor_lists[m]
            total = 0.0
            for i in range(n_nodes):
                inter = np.intersect1d(nl[i], nm[i], assume_unique=True).size
                union = np.union1d(nl[i], nm[i]).size
                total += inter / union
            pair_scores[(l, m)] = total / n_nodes
    metadata = {"k": params.k, "metric": params.metric, "preprocess": preprocess}
    return _report("knn-jaccard", pair_scores, len(values), metadata)


def second_order_cosine_index(
    ensemble, params: NeighborParams, *, preprocess: bool = False
) -> PairwiseIndexReport:
    """Cosine agreement of per-node similarity profiles across pairs.

    For node i and pair (l, m), the two k-neighborhoods are unioned into
    one list sorted by ascending node id; each configuration contributes
    the vector of cosine similarities between z_i and the listed
    neighbors, computed within its own space; the node's score is the
    cosine of those two vectors. An all-zero similarity vector scores 0
    and is counted in the report metadata.
    """
    values = _prepared_values(ensemble, preprocess)
    units = [_unit_rows(v) for v in values]
    neighbor_lists = [knn_neighbors(v, params).indices for v in values]
    n_nodes = values[0].shape[0]
    pair_scores: dict[tuple[int, int], float] = {}
    zero_vectors = 0
    for l in range(len(values)):
        for m in range(l + 1, len(values)):
            nl, nm = neighbor_lists[l], neighbor_lists[m]
            total = 0.0
            for i in range(n_nodes):
                joined = np.union1d(nl[i], nm[i])
                profile_l = units[l][joined] @ units[l][i]
                profile_m = units[m][joined] @ units[m][i]
                score, degenerate = _cosine_guarded(profile_l, profile_m)
                zero_vectors += degenerate
                total += score
            pair_scores[(l, m)] = total / n_nodes
    metadata = {
        "k": params.k,
        "metric": params.metric,
        "preprocess": preprocess,
        "zero_vector_scores": zero_vectors,
    }
    return _report("second-order-cosine", pair_scores, len(values), metadata)


def aligned_cosine_index(ensemble, *, preprocess: bool = False) -> PairwiseIndexReport:
    """Mean per-node cosine after Procrustes-aligning each pair.

    For pair (l, m) the source embeddings are rotated by the orthogonal
    Procrustes solution before row-wise cosines are taken, so any purely
    orthogonal discrepancy between the spaces scores 1. Requires equal
    embedding dimensions across configurations.
    """
    values = _prepared_values(ensemble, preprocess)
    _require_equal_dims(values, "aligned-cosine")
    n_nodes = values[0].shape[0]
    pair_scores: dict[tuple[int, int], float] = {}
    zero_vectors = 0
    degenerate_alignments = 0
    for l in range(len(values)):
        for m in range(l + 1, len(values)):
            alignment = procrustes_align(values[l], values[m])
            degenerate_alignments += alignment.degenerate
            mapped = values[l] @ alignment.q
            total = 0.0
            for i in range(n_nodes):
                score, degenerate = _cosine_guarded(mapped[i], values[m][i])
                zero_vectors += degenerate
                total += score
            pair_scores[(l, m)] = total / n_nodes
    metadata = {
        "preprocess": preprocess,
        "zero_vector_scores": zero_vectors,
        "degenerate_alignments": degenerate_alignments,
    }
    return _report("aligned-cosine", pair_scores, len(values), metadata)


def hausdorff_index(ensemble, *, preprocess: bool = False) -> PairwiseIndexReport:
    """Mean symmetric Hausdorff distance between pairs of point clouds.

    d_H is the larger of the two directed sup-inf Euclidean point-to-set
    distances; 0 exactly when the two clouds coincide as sets.
    """
    from scipy.spatial.distance import cdist

    values = _prepared_values(ensemble, preprocess)
    _require_equal_dims(values, "hausdorff")
    pair_scores: dict[tuple[int, int], float] = {}
    for l in range(len(values)):
        for m in range(l + 1, len(values)):
            dists = cdist(values[l], values[m])
            forward = dists.min(axis=1).max()
            backward = dists.min(axis=0).max()
            pair_scores[(l, m)] = float(max(forward, backward))
    metadata = {"preprocess": preprocess}
    return _report("hausdorff", pair_scores, len(values), metadata)


def wasserstein_index(
    ensemble, *, preprocess: bool = False, max_nodes: int = 10_000
) -> PairwiseIndexReport:
    """Minimum total squared displacement over node bijections, rooted.

    For pair (l, m): W = (min over bijections eta of
    sum_i ||z_i^l - z_eta(i)^m||^2)^(1/2), solved exactly as a linear
    assignment on the dense squared-distance cost matrix. The cost
    matrix is |V| x |V|, hence the ``max_nodes`` cap.
    """
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    values = _prepared_values(ensemble, preprocess)
    _require_equal_dims(values, "wasserstein")
    n_nodes = values[0].shape[0]
    if n_nodes > max_nodes:
        raise InstanceTooLarge(
            f"wasserstein needs a dense {n_nodes} x {n_nodes} cost matrix; "
            f"cap is {max_nodes} nodes"
        )
    pair_scores: dict[tuple[int, int], float] = {}
    for l in range(len(values)):
        for m in range(l + 1, len(values)):
            cost = cdist(values[l], values[m], metric="sqeuclidean")
            rows, cols = linear_sum_assignment(cost)
            pair_scores[(l, m)] = float(np.sqrt(cost[rows, cols].sum()))
    metadata = {"preprocess": preprocess, "max_nodes": max_nodes}
    return _report("wasserstein", pair_scores, len(values), metadata)
