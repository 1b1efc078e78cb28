"""Graph Gram index: edge-restricted Gram summaries and their dispersion.

For one configuration the summary is the mean inner product over node
pairs joined by an edge; the index is the standard deviation of those
summaries across configurations. The adjacency-masked Gram matrix is
never materialized: only edge-indexed inner products are computed, so
the cost is O(|E| d) time per configuration and its extra memory is one
float64 per edge plus two gather blocks of ``_GATHER_ELEMENTS`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import (
    GraphTopology,
    center_normalize_inplace,
    magnitude_scale,
    matrix_values,
)
from .errors import (
    EmptyGraph,
    InternalInvariant,
    NonFiniteScore,
    ShapeMismatch,
    TooFewConfigs,
)

# Per-edge inner products are summed in groups of about this many matrix
# elements. The grouping fixes the floating-point summation order, so
# changing it changes scores in the last bits.
_BLOCK_ELEMENTS = 2_097_152

# Endpoint rows are gathered in blocks of about this many elements per
# side (256 KB of float64), so both gathered blocks stay in L2 cache
# while their row-wise dot products are taken.
_GATHER_ELEMENTS = 32_768

_STD_CONVENTIONS = ("population", "sample")


@dataclass(frozen=True)
class EdgeSummaryScore:
    """Per-configuration summary: mean inner product over graph edges."""

    config_index: int
    score: float
    degenerate_rows: int = 0


@dataclass(frozen=True)
class StabilityReport:
    """Final index value plus the per-configuration scores behind it."""

    index_name: str
    index_value: float
    index_percent: float
    n_configs: int
    per_config: tuple[EdgeSummaryScore, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def scores(self) -> np.ndarray:
        return np.array([s.score for s in self.per_config])


def _edge_mean_inner(values: np.ndarray, edges: np.ndarray) -> float:
    """Mean of <z_i, z_j> over unordered edges, accumulated blockwise.

    Identical to summing the adjacency-masked Gram matrix over all
    ordered pairs and dividing by 2|E|, since each unordered edge
    contributes the same inner product in both directions. The gather
    block size does not affect the result: each edge's inner product is
    computed on its own, and only the summation groups fix the order of
    the additions.
    """
    n_edges = edges.shape[0]
    dim = values.shape[1]
    dots = np.empty(n_edges)
    gather = max(1, _GATHER_ELEMENTS // dim)
    for start in range(0, n_edges, gather):
        chunk = edges[start : start + gather]
        np.einsum(
            "ij,ij->i",
            values[chunk[:, 0]],
            values[chunk[:, 1]],
            out=dots[start : start + gather],
        )
    group = max(1, _BLOCK_ELEMENTS // dim)
    total = 0.0
    for start in range(0, n_edges, group):
        total += float(dots[start : start + group].sum())
    return total / n_edges


def score_configuration(
    mat,
    graph: GraphTopology,
    config_index: int = 0,
    *,
    preprocess: bool = True,
    copy: bool = True,
) -> EdgeSummaryScore:
    """Preprocess (optionally) and summarize one configuration.

    With ``copy=False`` the input array is centered and normalized in
    place; only pass arrays the caller owns. A score that is not finite
    (finite entries too large for float64 arithmetic) raises
    NonFiniteScore. Preprocessed scores are checked against the cosine
    bound |s| <= 1.
    """
    values = matrix_values(mat)
    if graph.edge_count == 0:
        raise EmptyGraph("graph has no edges")
    if values.shape[0] != graph.node_count:
        raise ShapeMismatch(
            f"config {config_index} has {values.shape[0]} rows but the graph "
            f"has {graph.node_count} nodes",
            config_index=config_index,
        )
    n_degenerate = 0
    if preprocess:
        if copy or not (isinstance(mat, np.ndarray) and values.flags.writeable):
            values = values.copy()
        n_degenerate = center_normalize_inplace(values)
    score = _edge_mean_inner(values, graph.edges)
    if not np.isfinite(score):
        raise NonFiniteScore(
            f"config {config_index}: edge summary is {score!r}; the entries "
            f"are too large for float64 arithmetic (rescale the embeddings)",
            config_index=config_index,
        )
    if preprocess and abs(score) > 1.0 + 1e-9:
        raise InternalInvariant(
            f"preprocessed edge summary {score!r} escaped the cosine bound"
        )
    return EdgeSummaryScore(
        config_index=config_index, score=score, degenerate_rows=n_degenerate
    )


def _ddof(std: str) -> int:
    """The ddof of a dispersion convention: "population" divides by N (the
    ensemble is the whole object of study), "sample" by N - 1."""
    if std not in _STD_CONVENTIONS:
        raise ValueError(f"std must be one of {_STD_CONVENTIONS}, got {std!r}")
    return _STD_CONVENTIONS.index(std)


def dispersion(scores: np.ndarray, std: str = "population") -> float:
    """Standard deviation of per-configuration scores under the ``std``
    convention, "population" or "sample".

    Bit-identical inputs must yield exactly 0.0, which naive mean/std
    arithmetic does not guarantee, so that case is short-circuited. Scores
    are divided by their :func:`~gramstab.core.magnitude_scale` first.
    """
    ddof = _ddof(std)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.max() == scores.min():
        return 0.0
    scale = magnitude_scale(scores)
    return scale * float((scores / scale).std(ddof=ddof))


def ggi_index(
    configs: Iterable,
    graph: GraphTopology,
    *,
    preprocess: bool = True,
    std: str = "population",
    copy: bool = True,
) -> StabilityReport:
    """Graph Gram index of an ensemble over a fixed graph.

    Each configuration is centered and normalized (unless ``preprocess``
    is False) and reduced to its edge-restricted Gram summary; the index
    is the :func:`dispersion` of those summaries under the ``std``
    convention. Configurations are consumed one at a time, so ``configs``
    may be a lazy iterable of matrices when the ensemble is too large to
    hold in memory; pass ``copy=False`` when the iterable yields arrays
    the pipeline may scribble on. An unknown ``std`` raises ValueError
    before the first configuration is read.

    Returns
    -------
    StabilityReport
        Per-configuration scores, the index (raw and percent), and the
        conventions used. ``index_value`` is always recomputable from
        ``per_config``.
    """
    _ddof(std)
    scores: list[EdgeSummaryScore] = []
    # Deliberately not enumerate(): its cached result tuple keeps the
    # previous matrix alive while the iterable builds the next one,
    # which doubles peak memory when streaming large ensembles.
    idx = 0
    for mat in configs:
        scores.append(
            score_configuration(mat, graph, idx, preprocess=preprocess, copy=copy)
        )
        del mat
        idx += 1
    if len(scores) < 2:
        raise TooFewConfigs(f"need at least 2 configurations, got {len(scores)}")
    index_value = dispersion(np.array([s.score for s in scores]), std)
    if not np.isfinite(index_value * 100.0):
        raise NonFiniteScore(f"the index is {index_value!r}; in percent it is too "
                             f"large for float64 (rescale the embeddings)")
    metadata = {
        "preprocess": preprocess,
        "std": std,
        "degenerate_rows": [s.degenerate_rows for s in scores],
        "score_definition": "mean inner product over unordered graph edges",
    }
    return StabilityReport(
        index_name="ggi",
        index_value=index_value,
        index_percent=index_value * 100.0,
        n_configs=len(scores),
        per_config=tuple(scores),
        metadata=metadata,
    )
