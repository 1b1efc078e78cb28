"""The graph type, matrix validation and the center-normalize step.

Embeddings are plain float64 arrays, one row per node. The graph is a
frozen dataclass around a numpy array and is treated as read-only after
construction, so it can be shared freely across threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import NonFiniteInput, NonFiniteScore, ShapeMismatch, TooFewConfigs

# A row whose centered norm is below this times its configuration's magnitude
# (the larger of its largest centered row norm and largest |column mean|) is
# centering's rounding error: it is zeroed and counted as degenerate, in any units.
DEGENERATE_ROW_NORM = 1e-15

# Magnitudes outside this window are divided by a power of two (exactly) first,
# so that squares, inner products and distances stay inside the float64 range.
MAGNITUDE_WINDOW = (2.0**-100, 2.0**100)

# Edges are canonicalized through keys i * node_count + j, which fit in int64
# up to this many nodes.
_KEY_NODES = math.isqrt(np.iinfo(np.int64).max)

# A row pass is split across CPUs only when each span holds at least this
# many values (512 KB of float64), enough to pay for starting a thread.
_SPAN_ELEMENTS = 65_536


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _over_spans(count: int, work, min_span: int) -> None:
    """Run ``work(lo, hi)`` over contiguous spans of ``range(count)``, one
    span per CPU and at least ``min_span`` long, and return once all have.

    The caller's thread runs the first span and plain threads the rest;
    with one CPU, or ``count < 2 * min_span``, it runs ``work(0, count)``
    inline. numpy releases the GIL in the copies and arithmetic a span
    does, so the spans run at the same time. An exception in any span is
    raised here after every thread has been joined, so a caller never
    reads the output of a span that did not finish.
    """
    spans = min(_cpu_count(), count // min_span)
    if spans < 2:
        work(0, count)
        return
    bounds = [count * k // spans for k in range(spans + 1)]
    errors: list = [None] * spans

    def run(k: int) -> None:
        try:
            work(bounds[k], bounds[k + 1])
        except BaseException as exc:  # raised again by the caller below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, spans)]
    for thread in threads:
        thread.start()
    try:
        work(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _canonical_keys(node_count: int, pairs: np.ndarray, prior=None) -> tuple[np.ndarray, int]:
    """Sorted distinct keys ``min(a, b) * node_count + max(a, b)`` of the
    rows (a, b) of an (E, 2) int64 ``pairs`` that are not self-loops,
    merged with the sorted distinct keys ``prior``; and the number of
    self-loop rows. Needs node_count <= ``_KEY_NODES``.

    The keys are built in one array this routine owns and sorted in place,
    then a first-difference mask keeps the distinct ones: recent numpy
    releases take a hash path in ``np.unique`` on integer input that is
    many times slower. A caller that passes its only reference to ``pairs``
    (a fresh draw) lets it go before the distinct keys are copied out.
    """
    start = 0 if prior is None else prior.size
    keys = np.empty(start + pairs.shape[0], dtype=np.int64)
    if start:
        keys[:start] = prior
    new = keys[start:]
    a, b = pairs[:, 0], pairs[:, 1]
    np.minimum(a, b, out=new)
    new *= node_count - 1
    new += a
    new += b  # min * (n - 1) + a + b == min * n + max, without a max array
    loops = a == b
    n_self = int(np.count_nonzero(loops))
    new[loops] = -1  # sorts ahead of every edge key, which is at least 1
    del pairs, a, b, new, loops
    keys.sort()
    keys = keys[n_self:]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first], n_self


def _split_keys(keys: np.ndarray, node_count: int) -> np.ndarray:
    """The (E, 2) edge array (key // node_count, key % node_count) of keys
    from :func:`_canonical_keys`, written straight into its columns."""
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.floor_divide(keys, node_count, out=edges[:, 0])
    np.remainder(keys, node_count, out=edges[:, 1])
    return edges


def _matrix_shape(arr: np.ndarray, *, config_index: int | None = None, path=None) -> None:
    """Check that ``arr`` is 2-D and at least 1x1, naming ``path`` or
    ``config_index`` as :func:`matrix_values` does."""
    where = "" if config_index is None else f"config {config_index}: "
    if arr.ndim != 2:
        raise ShapeMismatch(f"{where}expected a 2-D matrix, got ndim={arr.ndim}",
                            config_index=config_index, path=path)
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"{where}matrix must be at least 1x1, got shape {arr.shape}",
                            config_index=config_index, path=path)


def matrix_values(mat, *, config_index: int | None = None, path=None) -> np.ndarray:
    """Return ``mat`` as a float64 array, without a copy when it is one,
    after checking that it is 2-D, at least 1x1 and finite.

    An error names the file ``path`` or, as ``config {i}:``, the
    configuration ``config_index`` the matrix came from, when given.
    """
    where = "" if config_index is None else f"config {config_index}: "
    arr = np.asarray(mat, dtype=np.float64)
    _matrix_shape(arr, config_index=config_index, path=path)
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{where}matrix contains NaN or infinite values",
                             config_index=config_index, path=path)
    return arr


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
        keys, n_self = _canonical_keys(node_count, arr)
        n_dup = arr.shape[0] - n_self - keys.size
        edges = _split_keys(keys, node_count)
        return cls(node_count, edges), n_self, n_dup


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


# Overflow is raised below as a named error; numpy's own warnings would only
# add lines to stderr. The row passes run in their own threads, which do not
# inherit this error state, so they set it again.
@np.errstate(over="ignore", invalid="ignore")
def center_normalize_inplace(arr: np.ndarray, config_index: int = 0) -> int:
    """Center columns and L2-normalize rows of a writable array, in place.

    Afterwards every entry of the Gram matrix Z Z^T is the cosine of two
    centered embeddings. Copy an array you do not own first. When the row
    norms leave ``MAGNITUDE_WINDOW``, the centered array is first divided
    by its :func:`magnitude_scale`. Rows that are degenerate (see
    ``DEGENERATE_ROW_NORM``) are set to exact zeros and tallied rather
    than rejected; returns their count. A shape that is not 2-D and at
    least 1x1 raises ShapeMismatch and a NaN or inf entry NonFiniteInput,
    before anything is written, and entries too large for float64
    arithmetic raise NonFiniteScore, each labelled with ``config_index``:
    a call that returns leaves no NaN or inf in ``arr``.

    Centering and the final division run over row spans, one per CPU;
    each row's arithmetic is the same in any span, so are the bits.
    """
    _matrix_shape(arr, config_index=config_index)
    rows = arr.shape[0]
    min_span = max(1, _SPAN_ELEMENTS // arr.shape[1])
    mean = arr.mean(axis=0)
    # A NaN or inf entry makes its column's mean non-finite, so finite input
    # pays only this test of d values; finite entries whose sums overflow
    # reach the NonFiniteScore below.
    if not np.isfinite(mean).all() and not np.isfinite(arr).all():
        raise NonFiniteInput(f"config {config_index}: matrix contains NaN or infinite values",
                             config_index=config_index)
    norms = np.empty(rows)

    def center(lo: int, hi: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            block = arr[lo:hi]
            block -= mean
            np.einsum("ij,ij->i", block, block, out=norms[lo:hi])
            np.sqrt(norms[lo:hi], out=norms[lo:hi])

    _over_spans(rows, center, min_span)
    scale = 1.0
    if not MAGNITUDE_WINDOW[0] <= norms.max() <= MAGNITUDE_WINDOW[1]:
        scale = magnitude_scale(arr)
        arr /= scale
        norms = np.sqrt(np.einsum("ij,ij->i", arr, arr))
    # A row norm is finite exactly when every entry of its row is.
    if not np.isfinite(norms).all():
        raise NonFiniteScore(
            f"config {config_index}: centered values are not finite; the entries "
            f"are too large for float64 arithmetic (rescale the embeddings)",
            config_index=config_index,
        )
    magnitude = max(norms.max(), np.abs(mean).max() / scale)
    # An all-zero configuration has magnitude 0, so zero norms count as well.
    degenerate = (norms < DEGENERATE_ROW_NORM * magnitude) | (norms == 0.0)
    n_degenerate = int(np.count_nonzero(degenerate))
    if n_degenerate:
        arr[degenerate] = 0.0
        norms[degenerate] = 1.0

    def normalize(lo: int, hi: int) -> None:
        arr[lo:hi] /= norms[lo:hi, None]

    _over_spans(rows, normalize, min_span)
    return n_degenerate


def validate_ensemble(configs: Iterable, graph: GraphTopology) -> tuple[int, ...]:
    """Check each configuration's row count against the graph; return the dims.

    Takes any iterable of matrices, consumed one at a time, so a lazy
    iterable holds one matrix. Raises ShapeMismatch naming the first
    mismatched configuration, TooFewConfigs for under two.
    """
    dims: list[int] = []
    for mat in configs:
        rows, cols = matrix_values(mat, config_index=len(dims)).shape
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
