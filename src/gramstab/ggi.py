"""Graph Gram index: edge-restricted Gram summaries and their dispersion.

For one configuration the summary is the mean inner product over node
pairs joined by an edge; the index is the standard deviation of those
summaries across configurations. The adjacency-masked Gram matrix is
never materialized: only edge-indexed inner products are computed, so
the cost is O(|E| d) time per configuration. Its extra memory does not
grow with |E|: for each CPU the process may use, two gather blocks of
``core._SPAN_ELEMENTS`` values (1 MB per CPU), which stay in L2 cache
while their row-wise dot products are taken, and two 64 KB buffers:
those products, and the scratch that adds them into exact sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import core
from .core import (
    GraphTopology,
    _check_matrix,
    _over_spans,
    _require_configs,
    _require_rows,
    center_normalize_inplace,
    magnitude_scale,
)
from .errors import EmptyGraph, InternalInvariant

# Each edge's inner product is kept in this many bins of the fixed grid of
# :func:`_fold`, from the bin of the largest one down: that reaches at least
# twice the bin width below it, which bounds what a score drops (see
# :func:`_edge_mean_inner`). A fourth bin would cost a quarter more folding.
_FOLDS = 3


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


def _fold(dots: np.ndarray, part: np.ndarray, width: int, bins: dict[int, float]) -> None:
    """Add ``dots`` into ``bins`` exactly, overwriting it and the scratch
    ``part`` of its size: bin b holds a sum of multiples of 2**(b *
    width), and ``_FOLDS`` bins from the one that holds max |dots| down
    are filled.

    Each value is split, from the top bin down, into its nearest multiple
    of the bin's unit, fl(fl(sigma + r) - sigma) with sigma = 1.5 *
    2**(b * width + 52), and the rest (Demmel and Nguyen, ARITH 2013):
    both steps are exact. The grid is fixed by the bin width alone, so a
    value's part in a bin does not depend on the other values, and with
    ``width`` from :func:`_bin_width` no bin's sum of |E| parts rounds.
    So the bins hold the same numbers in any order of addition, and what
    lies below the ``_FOLDS`` bins under the largest value is dropped
    from every sum alike. NaN or inf values make the bins NaN.
    """
    peak = float(np.maximum(dots.max(), -dots.min()))
    if peak == 0.0:
        return
    # The smallest top bin b with max |dots| <= 2**(b * width - 1), less one.
    top = -(-(math.frexp(peak)[1] + 1) // width) - 1
    for b in range(top, top - _FOLDS, -1):
        sigma = math.ldexp(1.5, b * width + 52)
        np.add(dots, sigma, out=part)
        part -= sigma
        bins[b] = bins.get(b, 0.0) + float(part.sum())
        dots -= part


def _bin_width(count: int) -> int:
    """The bits per bin of :func:`_fold` for sums of ``count`` values: a
    bin's parts are below 2**width units each, so ``count`` of them sum
    to below 2**53 units, which float64 holds exactly."""
    return 52 - count.bit_length()


def _edge_mean_inner(values: np.ndarray, edges: np.ndarray) -> float:
    """Mean of <z_i, z_j> over unordered edges, summed reproducibly.

    Identical to summing the adjacency-masked Gram matrix over all
    ordered pairs and dividing by 2|E|, since each unordered edge
    contributes the same inner product in both directions. The edges
    are split into spans, one per CPU; a span takes its inner products
    a gather block at a time into a buffer of ``core._SPAN_ELEMENTS //
    8`` values (64 KB) and adds each full buffer into its own bins with
    :func:`_fold`. The bins are exact sums on one fixed grid, so the
    spans' bins add exactly too, and the score has the same bits for any
    order of the edges, any gather block and any number of CPUs. It is
    the sum of the top ``_FOLDS`` bins, rounded once, over |E|. The parts
    below those bins move it by less than 2**(1 - 2 * width) times the
    largest |<z_i, z_j>|, with ``width`` from :func:`_bin_width`: 2**-63
    at a million edges, 2**-51 at 62 million. On every ensemble measured
    the score equals ``math.fsum`` of the products over |E|.
    """
    n_edges = edges.shape[0]
    dim = values.shape[1]
    gather = max(1, core._SPAN_ELEMENTS // dim)
    fold = max(gather, core._SPAN_ELEMENTS // 8)
    width = _bin_width(n_edges)
    spans: list[dict[int, float]] = []

    def gather_span(lo: int, hi: int) -> None:
        sources = np.empty((min(gather, hi - lo), dim))
        targets = np.empty_like(sources)
        dots, part = np.empty((2, min(fold, hi - lo)))
        bins: dict[int, float] = {}
        for block in range(lo, hi, fold):
            end = min(block + fold, hi)
            for start in range(block, end, gather):
                chunk = edges[start : min(start + gather, end)]
                left, right = sources[: chunk.shape[0]], targets[: chunk.shape[0]]
                # mode="clip" skips the per-index bounds check (and the copy of
                # ``out`` that mode="raise" makes). No index is out of range:
                # GraphTopology range-checks every endpoint against its node
                # count, and score_configuration checks that ``values`` has that
                # many rows.
                np.take(values, chunk[:, 0], axis=0, out=left, mode="clip")
                np.take(values, chunk[:, 1], axis=0, out=right, mode="clip")
                np.einsum("ij,ij->i", left, right,
                          out=dots[start - block : start - block + chunk.shape[0]])
            _fold(dots[: end - block], part[: end - block], width, bins)
        spans.append(bins)  # only once the whole span is in its bins

    _over_spans(n_edges, gather_span, gather)
    top = max((b for bins in spans for b in bins), default=0)
    total = [0.0] * _FOLDS
    for bins in spans:
        for b, value in bins.items():
            if b > top - _FOLDS:
                total[top - b] += value  # exact: a bin's sum never rounds
    return math.fsum(total) / n_edges


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
    # The shape, so the row count below is a matrix's; center_normalize_inplace refuses NaN, inf.
    _check_matrix(values, config_index=config_index)
    if graph.edge_count == 0:
        raise EmptyGraph("graph has no edges")
    _require_rows(values.shape[0], graph, config_index)
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
    of them would read 0.0, "perfectly stable". They are summed in sorted
    order, so the order of the configurations moves no bit of the result.
    """
    scores = np.sort(np.asarray(scores, dtype=np.float64))
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
    _require_configs(idx)
    column = np.array(scores)
    column.flags.writeable = False
    return StabilityReport(dispersion(column), column, tuple(degenerate_rows))
