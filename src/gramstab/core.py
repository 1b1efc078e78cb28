"""Shared domain types and the center-normalize preprocessing step.

All types here are plain frozen dataclasses around numpy arrays and are
treated as read-only after construction; every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import NonFiniteInput, ShapeMismatch, TooFewConfigs

# A row whose centered norm is below this times its configuration's magnitude
# (the larger of its largest centered row norm and largest |column mean|) is
# centering's rounding error: it is zeroed and counted as degenerate, in any units.
DEGENERATE_ROW_NORM = 1e-15

# Magnitudes outside this window are divided by a power of two (exactly) first,
# so that squares, inner products and distances stay inside the float64 range.
MAGNITUDE_WINDOW = (2.0**-100, 2.0**100)

# from_pairs sorts edges through keys i * node_count + j, which fit in int64
# up to this many nodes.
_KEY_NODES = math.isqrt(np.iinfo(np.int64).max)

MatrixLike = Union["EmbeddingMatrix", np.ndarray, Sequence[Sequence[float]]]


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"matrix must be at least 1x1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput("matrix contains NaN or infinite values")
    return arr


def _sorted_unique(keys) -> np.ndarray:
    """Sorted distinct values of ``keys``, flattened; equal to ``np.unique``.

    A sort plus a first-difference mask: recent numpy releases take a
    hash path in ``np.unique`` on integer input that is many times
    slower than this.
    """
    keys = np.sort(keys, axis=None)
    if keys.size < 2:
        return keys
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def matrix_values(mat: MatrixLike) -> np.ndarray:
    """Return the validated float64 array behind any matrix-like input."""
    if isinstance(mat, EmbeddingMatrix):
        return mat.values
    return _as_matrix(mat)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """One configuration's node embeddings; row i is node i's vector.

    Values are validated to be finite on construction and must not be
    mutated afterwards.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_matrix(self.values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class GraphTopology:
    """Undirected simple graph held as a canonical unordered edge array.

    ``edges`` has shape (E, 2) with each row (i, j) satisfying i < j,
    rows unique and sorted lexicographically. The implied adjacency is
    symmetric with a zero diagonal. Use :meth:`from_pairs` to build one
    from raw, possibly dirty pair data.
    """

    node_count: int
    edges: np.ndarray

    def __post_init__(self):
        if self.node_count < 1:
            raise ShapeMismatch(f"node_count must be >= 1, got {self.node_count}")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if edges.size == 0:
            return
        if edges.min() < 0 or edges.max() >= self.node_count:
            raise ShapeMismatch(
                f"edge endpoint out of range for node_count={self.node_count}"
            )
        if (edges[:, 0] >= edges[:, 1]).any():
            raise ShapeMismatch(
                "edges must be canonical unordered pairs (i < j, no self-loops)"
            )
        a, b = edges[:-1], edges[1:]  # row by row: no keys to overflow
        if ((b[:, 0] < a[:, 0]) | ((b[:, 0] == a[:, 0]) & (b[:, 1] <= a[:, 1]))).any():
            raise ShapeMismatch("edges must be unique and sorted lexicographically")

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    @classmethod
    def from_pairs(cls, node_count: int, pairs) -> tuple["GraphTopology", int, int]:
        """Canonicalize raw pairs into a topology.

        Self-loops are dropped and duplicate / reversed pairs collapse to
        one unordered edge. Returns ``(topology, self_loops_dropped,
        duplicates_dropped)``. ``node_count`` is at most ``_KEY_NODES``
        (about 3.04e9); build larger topologies from canonical edges.
        """
        if node_count > _KEY_NODES:
            raise ShapeMismatch(
                f"from_pairs sorts edges by int64 keys i * node_count + j, so "
                f"node_count must be <= {_KEY_NODES}, got {node_count}"
            )
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= node_count):
            raise ShapeMismatch(
                f"edge endpoint out of range for node_count={node_count}"
            )
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        self_mask = lo == hi
        n_self = int(np.count_nonzero(self_mask))
        lo, hi = lo[~self_mask], hi[~self_mask]
        keys = lo * np.int64(node_count) + hi
        uniq = _sorted_unique(keys)
        n_dup = int(keys.size - uniq.size)
        edges = np.column_stack([uniq // node_count, uniq % node_count])
        return cls(node_count, edges), n_self, n_dup


@dataclass(frozen=True)
class ConfigurationEnsemble:
    """Ordered collection of N >= 2 embedding matrices over the same nodes.

    Row counts must agree across members; embedding dimensions may
    differ (indices that need equal dimensions enforce that themselves).
    """

    configs: tuple[EmbeddingMatrix, ...]

    def __post_init__(self):
        configs = tuple(
            c if isinstance(c, EmbeddingMatrix) else EmbeddingMatrix(c)
            for c in self.configs
        )
        object.__setattr__(self, "configs", configs)
        if len(configs) < 2:
            raise TooFewConfigs(f"need at least 2 configurations, got {len(configs)}")
        rows = configs[0].rows
        for idx, cfg in enumerate(configs):
            if cfg.rows != rows:
                raise ShapeMismatch(
                    f"config {idx} has {cfg.rows} rows, expected {rows}",
                    config_index=idx,
                )

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    @property
    def node_count(self) -> int:
        return self.configs[0].rows

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.cols for c in self.configs)

    def __iter__(self):
        return iter(self.configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, idx: int) -> EmbeddingMatrix:
        return self.configs[idx]


def magnitude_scale(values: np.ndarray) -> float:
    """The power of two to divide ``values`` by before any arithmetic on them:
    1.0 when max |values| lies inside ``MAGNITUDE_WINDOW`` (or is 0 or not
    finite), else the largest power of two not above it. The division is
    exact, so cosines are unchanged and distances shrink by the scale.
    """
    peak = float(np.abs(values).max())
    low, high = MAGNITUDE_WINDOW
    if low <= peak <= high or not 0.0 < peak < np.inf:
        return 1.0
    return float(np.ldexp(1.0, np.frexp(peak)[1] - 1))


def center_normalize_inplace(arr: np.ndarray) -> int:
    """Center columns and L2-normalize rows of a writable array, in place.

    When the row norms leave ``MAGNITUDE_WINDOW``, the centered array is
    first divided by its :func:`magnitude_scale`. Rows that are degenerate
    (see ``DEGENERATE_ROW_NORM``) are set to exact zeros; returns their count.
    """
    mean = arr.mean(axis=0)
    arr -= mean
    norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    scale = 1.0
    if not MAGNITUDE_WINDOW[0] <= norms.max() <= MAGNITUDE_WINDOW[1]:
        scale = magnitude_scale(arr)
        arr /= scale
        norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    magnitude = max(norms.max(), np.abs(mean).max() / scale)
    # Strictly below, so that rows left infinite by an overflowed mean are
    # not zeroed but turn NaN; all-zero rows have no norm to be below.
    degenerate = (norms < DEGENERATE_ROW_NORM * magnitude) | (norms == 0.0)
    n_degenerate = int(np.count_nonzero(degenerate))
    if n_degenerate:
        arr[degenerate] = 0.0
        norms[degenerate] = 1.0
    arr /= norms[:, None]
    return n_degenerate


def preprocess_center_normalize(mat: MatrixLike) -> tuple[EmbeddingMatrix, int]:
    """Subtract the mean embedding, then scale each row to unit L2 norm.

    After this step every entry of the Gram matrix Z Z^T is the cosine
    similarity of two centered embeddings, so edge-restricted sums land
    in [-1, 1]. Rows that center to (near) zero stay all-zero and are
    tallied rather than rejected: a constant embedding is a legitimate,
    if pathological, model output.

    Parameters
    ----------
    mat : EmbeddingMatrix or array_like
        Finite 2-D input; raises NonFiniteInput otherwise.

    Returns
    -------
    (EmbeddingMatrix, int)
        The preprocessed matrix and the degenerate-row tally.
    """
    work = matrix_values(mat).copy()
    n_degenerate = center_normalize_inplace(work)
    return EmbeddingMatrix(work), n_degenerate


def validate_ensemble(configs: Iterable, graph: GraphTopology) -> tuple[int, ...]:
    """Check each configuration's row count against the graph; return the dims.

    Takes a ConfigurationEnsemble or any iterable of matrices, consumed one
    at a time, so a lazy iterable holds one matrix. Raises ShapeMismatch
    naming the first mismatched configuration, TooFewConfigs for under two.
    """
    dims: list[int] = []
    for mat in configs:
        rows, cols = matrix_values(mat).shape
        if rows != graph.node_count:
            raise ShapeMismatch(
                f"config {len(dims)} has {rows} rows but the graph has "
                f"{graph.node_count} nodes",
                config_index=len(dims),
            )
        dims.append(cols)
        del mat  # before the iterable reads the next one
    if len(dims) < 2:
        raise TooFewConfigs(f"need at least 2 configurations, got {len(dims)}")
    return tuple(dims)
