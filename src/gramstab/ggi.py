"""Graph Gram index: edge-restricted Gram summaries and their dispersion.

For one configuration the summary is the mean inner product over node
pairs joined by an edge; the index is the standard deviation of those
summaries across configurations. The adjacency-masked Gram matrix is
never materialized: only edge-indexed inner products are computed, so
the cost is O(|E| d) time per configuration and its extra memory is one
float64 per edge plus, for each CPU the process may use, two gather
blocks of ``_GATHER_ELEMENTS`` values (1 MB per CPU).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (
    GraphTopology,
    _matrix_shape,
    _over_spans,
    center_normalize_inplace,
    magnitude_scale,
)
from .errors import (
    EmptyGraph,
    InternalInvariant,
    ShapeMismatch,
    TooFewConfigs,
)

# Per-edge inner products are summed in groups of about this many matrix
# elements. The grouping fixes the floating-point summation order, so
# changing it changes scores in the last bits.
_BLOCK_ELEMENTS = 2_097_152

# Endpoint rows are gathered in blocks of about this many elements per
# side (512 KB of float64), so both gathered blocks stay in L2 cache
# while their row-wise dot products are taken. Each CPU's span of edges
# holds at least one block.
_GATHER_ELEMENTS = 65_536


@dataclass(frozen=True)
class StabilityReport:
    """The index plus the per-configuration values behind it, each one a
    column in ensemble order: ``scores`` (read-only float64) and
    ``degenerate_rows``."""

    index_value: float
    scores: np.ndarray
    degenerate_rows: tuple[int, ...]

    @property
    def index_percent(self) -> float:
        return self.index_value * 100.0

    @property
    def n_configs(self) -> int:
        return self.scores.size


def _edge_mean_inner(values: np.ndarray, edges: np.ndarray) -> float:
    """Mean of <z_i, z_j> over unordered edges, accumulated blockwise.

    Identical to summing the adjacency-masked Gram matrix over all
    ordered pairs and dividing by 2|E|, since each unordered edge
    contributes the same inner product in both directions. Neither the
    gather block size nor the edge spans, one per CPU, affect the
    result: each edge's inner product is computed on its own, and only
    the summation groups, summed in one thread, fix the order of the
    additions.
    """
    n_edges = edges.shape[0]
    dim = values.shape[1]
    dots = np.empty(n_edges)
    gather = max(1, _GATHER_ELEMENTS // dim)

    def gather_span(lo: int, hi: int) -> None:
        sources = np.empty((min(gather, hi - lo), dim))
        targets = np.empty_like(sources)
        for start in range(lo, hi, gather):
            chunk = edges[start : min(start + gather, hi)]
            left, right = sources[: chunk.shape[0]], targets[: chunk.shape[0]]
            # mode="clip" skips the per-index bounds check (and the copy of
            # ``out`` that mode="raise" makes). No index is out of range:
            # GraphTopology range-checks every endpoint against its node
            # count, and score_configuration checks that ``values`` has that
            # many rows.
            np.take(values, chunk[:, 0], axis=0, out=left, mode="clip")
            np.take(values, chunk[:, 1], axis=0, out=right, mode="clip")
            np.einsum("ij,ij->i", left, right, out=dots[start : start + chunk.shape[0]])

    _over_spans(n_edges, gather_span, gather)
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
    copy: bool = True,
) -> tuple[float, int]:
    """Center, normalize and summarize one configuration.

    Returns the score, the mean cosine over graph edges, and the number
    of degenerate rows the preprocessing found.

    With ``copy=False`` a writable float64 input array is centered and
    normalized in place; only pass arrays the caller owns. Otherwise the
    input is copied once, by its conversion to float64. Scores are
    checked against the cosine bound |s| <= 1.
    """
    if copy:
        mat = np.array(mat, dtype=np.float64, order="C")
    values = np.asarray(mat, dtype=np.float64)
    # The shape, so the row count below is a matrix's; NaN and inf are
    # refused by center_normalize_inplace, with the same message.
    _matrix_shape(values, config_index=config_index)
    if graph.edge_count == 0:
        raise EmptyGraph("graph has no edges")
    if values.shape[0] != graph.node_count:
        raise ShapeMismatch(
            f"config {config_index} has {values.shape[0]} rows but the graph "
            f"has {graph.node_count} nodes",
            config_index=config_index,
        )
    if not values.flags.writeable:
        values = values.copy()
    n_degenerate = center_normalize_inplace(values, config_index)
    score = _edge_mean_inner(values, graph.edges)
    # Written so that a NaN fails it too.
    if not abs(score) <= 1.0 + 1e-9:
        raise InternalInvariant(
            f"preprocessed edge summary {score!r} escaped the cosine bound"
        )
    return score, n_degenerate


def dispersion(scores: np.ndarray) -> float:
    """Population standard deviation (divide by N) of per-configuration
    scores: the ensemble is the whole object of study.

    Bit-identical inputs must yield exactly 0.0, which naive mean/std
    arithmetic does not guarantee, so that case is short-circuited. Scores
    are divided by their :func:`~gramstab.core.magnitude_scale` first:
    cosines below 2^-100 underflow when squared, and an unscaled spread
    of them would read 0.0, "perfectly stable".
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.max() == scores.min():
        return 0.0
    scale = magnitude_scale(scores)
    return scale * float((scores / scale).std())


def ggi_index(
    configs: Iterable,
    graph: GraphTopology,
    *,
    copy: bool = True,
) -> StabilityReport:
    """Graph Gram index of an ensemble over a fixed graph.

    Each configuration is centered, normalized and reduced to its
    edge-restricted Gram summary, a mean cosine in [-1, 1]; the index
    is the :func:`dispersion` of those summaries. Configurations are
    consumed one at a time, so ``configs`` may be a lazy iterable of
    matrices when the ensemble is too large to hold in memory; pass
    ``copy=False`` when the iterable yields arrays the pipeline may
    scribble on.

    Returns
    -------
    StabilityReport
        The index and the per-configuration scores and degenerate-row
        counts. ``index_value`` is always recomputable from ``scores``;
        ``index_value * sqrt(N / (N - 1))`` is the N - 1 (sample) spread.
    """
    scores: list[float] = []
    degenerate_rows: list[int] = []
    # Deliberately not enumerate(): its cached result tuple keeps the
    # previous matrix alive while the iterable builds the next one,
    # which doubles peak memory when streaming large ensembles.
    idx = 0
    for mat in configs:
        score, n_degenerate = score_configuration(mat, graph, idx, copy=copy)
        del mat
        scores.append(score)
        degenerate_rows.append(n_degenerate)
        idx += 1
    if idx < 2:
        raise TooFewConfigs(f"need at least 2 configurations, got {idx}")
    column = np.array(scores)
    column.flags.writeable = False
    return StabilityReport(dispersion(column), column, tuple(degenerate_rows))
