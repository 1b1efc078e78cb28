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

from .errors import InstanceTooLarge, NonFiniteInput, NonFiniteScore, ShapeMismatch, TooFewConfigs

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

# The span of every blocked pass, read through this module at call time. It
# keeps each pass's temporaries cache-sized (512 KB of 8-byte values) and moves
# no bit of a result: a row pass of center_normalize_inplace goes to several
# CPUs only when each span holds this many values; the GGI gather takes blocks
# of this many values a side; from_pairs, random_graph, the id ranking of
# load_edge_list and save_edge_list go this many keys or ids at a time.
_SPAN_ELEMENTS = 65_536


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start(work, *args, name: str | None = None):
    """Start ``work(*args)`` on a thread named ``name``; return its join, which
    waits for it and returns what ``work`` raised, or None, on every call."""
    raised = [None]

    def run() -> None:
        try:
            work(*args)
        except BaseException as exc:  # handed to the caller by the join
            raised[0] = exc

    thread = threading.Thread(target=run, name=name)
    thread.start()
    return lambda: thread.join() or raised[0]  # join() returns None


def _over_spans(count: int, work, min_span: int) -> None:
    """Run ``work(lo, hi)`` over contiguous spans of ``range(count)``, one
    span per CPU and at least ``min_span`` long, and return once all have.

    The caller's thread runs the first span and :func:`_start` threads
    the rest; with one CPU, or ``count < 2 * min_span``, it runs ``work(0,
    count)`` inline. numpy releases the GIL in the copies and arithmetic a
    span does, so the spans run at the same time. An exception in any span
    is raised here after every thread has been joined, so a caller never
    reads the output of a span that did not finish.
    """
    spans = min(_cpu_count(), count // min_span)
    if spans < 2:
        work(0, count)
        return
    bounds = [count * k // spans for k in range(spans + 1)]
    joins = [_start(work, bounds[k], bounds[k + 1]) for k in range(1, spans)]
    try:
        work(bounds[0], bounds[1])
    finally:
        errors = [exc for join in joins if (exc := join()) is not None]
    if errors:
        raise errors[0]


def _run_starts(values: np.ndarray, last) -> np.ndarray:
    """The boolean mask of the sorted ``values`` that differ from the one
    before them, with ``last`` before the first: where each run starts."""
    first = np.empty(values.size, dtype=bool)
    first[0] = values[0] != last
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _pair_keys(node_count: int, pairs: np.ndarray, out: np.ndarray) -> int:
    """Write the key ``min(a, b) * node_count + max(a, b)`` of each row
    (a, b) of ``pairs`` into ``out``, -1 for a self-loop, and return the
    number of self-loops."""
    a, b = pairs[:, 0], pairs[:, 1]
    np.minimum(a, b, out=out)
    out *= node_count - 1
    out += a
    out += b  # min * (n - 1) + a + b == min * n + max, without a max array
    loops = a == b
    out[loops] = -1  # sorts ahead of every edge key, which is at least 1
    return int(np.count_nonzero(loops))


def _allocate(shape, dtype, what: str, kind: str, *, path=None) -> np.ndarray:
    """``np.empty(shape, dtype)`` for a size an input sets. Past numpy's size limit
    (a ValueError) or the host's memory it raises InstanceTooLarge("{what} N
    bytes of {dtype} {kind}, more than ..."), naming ``path`` when given."""
    try:
        return np.empty(shape, dtype=dtype)
    except (ValueError, MemoryError):
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape if isinstance(shape, tuple) else (shape,)) * dtype.itemsize
        raise InstanceTooLarge(f"{what} {nbytes} bytes of {dtype.name} {kind}, "
                               f"more than can be allocated", path=path) from None


def _check_integer(value, name: str) -> None:
    """Raise ShapeMismatch unless ``value`` is an int or a numpy integer, not a
    bool: as a count, 2.5 would make 2 nodes and True 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeMismatch(f"{name} must be an integer, got {value!r}")


def _check_count(value, name: str) -> None:
    """Raise ShapeMismatch unless ``value``, a node count or a dimension, is an integer >= 1."""
    _check_integer(value, name)
    if value < 1:
        raise ShapeMismatch(f"{name} must be >= 1, got {value}")


def _check_key_nodes(node_count: int) -> None:
    """Raise ShapeMismatch when keys i * node_count + j of a graph of
    ``node_count`` nodes overflow int64, that is past ``_KEY_NODES``."""
    if node_count > _KEY_NODES:
        raise ShapeMismatch(
            f"edges are sorted by int64 keys i * node_count + j, so "
            f"node_count must be <= {_KEY_NODES}, got {node_count}"
        )


def _canonical_keys(node_count: int, rows: int, pairs, keys: np.ndarray) -> tuple[int, int]:
    """Sort the keys ``min(a, b) * node_count + max(a, b)`` of the ``rows``
    rows (a, b) that ``pairs`` yields and that are not self-loops into the
    int64 array ``keys``, each kept once at its front; return their count
    and the number of self-loop rows. Needs node_count <= ``_KEY_NODES``
    (see :func:`_check_key_nodes`).

    ``pairs(lo, hi)`` returns rows lo to hi as an (hi - lo, 2) int64
    array; it is called in order, a span of ``_SPAN_ELEMENTS`` rows at a
    time, so a caller may slice its pairs or draw each span. The keys are
    written into the last ``rows`` slots of ``keys``; slots before them
    may hold sorted distinct keys of an earlier call, which are merged
    in. ``keys`` is sorted in place, and then a first-difference mask per
    span moves the distinct ones forward: recent numpy releases take a
    hash path in ``np.unique`` on integer input that is many times
    slower. Beside ``keys`` this holds one span's pairs and temporaries,
    no second key array and no mask over all the rows.
    """
    new = keys[keys.size - rows:]
    n_self = 0
    for lo in range(0, rows, _SPAN_ELEMENTS):
        hi = min(lo + _SPAN_ELEMENTS, rows)
        n_self += _pair_keys(node_count, pairs(lo, hi), new[lo:hi])
    del new
    keys.sort()
    count, last = 0, -1  # the self-loops repeat the -1 before the first key
    for lo in range(0, keys.size, _SPAN_ELEMENTS):
        span = keys[lo:lo + _SPAN_ELEMENTS]
        first = _run_starts(span, last)
        last = span[-1]
        kept = int(np.count_nonzero(first))
        keys[count:count + kept] = span[first]
        count += kept
    return count, n_self


def _split_keys(keys: np.ndarray, count: int, node_count: int) -> np.ndarray:
    """Resize ``keys`` to the (count, 2) edge array (key // node_count,
    key % node_count) of its first ``count`` keys, as
    :func:`_canonical_keys` leaves them, and return it.

    ``keys`` is an int64 array that owns its data and has at least
    ``2 * count`` slots. It is split in place, last span of
    ``_SPAN_ELEMENTS`` keys first, so that a span's edges overwrite only
    keys already split and the span's own, which are copied out first
    (left to numpy, the overlap would copy both edge columns instead).
    """
    for hi in range(count, 0, -_SPAN_ELEMENTS):
        lo = max(hi - _SPAN_ELEMENTS, 0)
        edges = keys[2 * lo:2 * hi].reshape(-1, 2)
        np.divmod(keys[lo:hi].copy(), node_count, out=(edges[:, 0], edges[:, 1]))
    keys.resize((count, 2), refcheck=False)  # in place: the loop's views are not used again
    return keys


def _node_ids(ids, error: type, what: str) -> np.ndarray:
    """``ids`` as an int64 array. A non-empty float, bool or complex array
    raises ``error``: casting it would make 1.7 node 1 and True node 1.
    An empty list, which numpy types as float64, holds no ids."""
    arr = np.asarray(ids)
    if arr.size and arr.dtype.kind in "fbc":
        raise error(f"{what} must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def _is_permutation(ids: np.ndarray) -> bool:
    """Whether the integer array ``ids`` holds each of 0..ids.size-1 once."""
    return np.array_equal(np.sort(ids), np.arange(ids.size))


def _edge_endpoints(pairs, node_count: int) -> np.ndarray:
    """``pairs`` as an (E, 2) int64 array of ids in ``range(node_count)``,
    or a ShapeMismatch. Any empty array is (0, 2); no other is reshaped."""
    arr = _node_ids(pairs, ShapeMismatch, "edge endpoints")
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ShapeMismatch(f"edges must have shape (E, 2), got {arr.shape}")
    if arr.min() < 0 or arr.max() >= node_count:
        raise ShapeMismatch(f"edge endpoint out of range for node_count={node_count}")
    return arr


def _check_shape(shape: tuple, where: str = "", **labels) -> None:
    """Raise ShapeMismatch, prefixed by ``where``, unless ``shape`` is at least 1x1."""
    if shape[0] < 1 or shape[1] < 1:
        raise ShapeMismatch(f"{where}matrix must be at least 1x1, got shape {shape}", **labels)


def _check_matrix(arr: np.ndarray, *, finite: bool = False, config_index: int | None = None,
                  path=None) -> None:
    """Check that ``arr`` is 2-D, at least 1x1 and, if ``finite``, free of NaN
    and inf, naming ``path`` or ``config_index`` as :func:`matrix_values` does."""
    where = "" if config_index is None else f"config {config_index}: "
    if arr.ndim != 2:
        raise ShapeMismatch(f"{where}expected a 2-D matrix, got ndim={arr.ndim}",
                            config_index=config_index, path=path)
    _check_shape(arr.shape, where, config_index=config_index, path=path)
    if finite and not np.isfinite(arr).all():
        raise NonFiniteInput(f"{where}matrix contains NaN or infinite values",
                             config_index=config_index, path=path)


def _require_rows(rows: int, graph: GraphTopology, config_index: int) -> None:
    """Raise ShapeMismatch unless config ``config_index`` has one row per node."""
    if rows != graph.node_count:
        raise ShapeMismatch(f"config {config_index} has {rows} rows but the graph has "
                            f"{graph.node_count} nodes", config_index=config_index)


def _require_configs(count: int) -> None:
    """Raise TooFewConfigs for an ensemble of under two configurations."""
    if count < 2:
        raise TooFewConfigs(f"need at least 2 configurations, got {count}")


def matrix_values(mat, *, config_index: int | None = None, path=None) -> np.ndarray:
    """Return ``mat`` as a float64 array, without a copy when it is one,
    after checking that it is 2-D, at least 1x1 and finite.

    An error names the file ``path`` or, as ``config {i}:``, the
    configuration ``config_index`` the matrix came from, when given.
    """
    arr = np.asarray(mat, dtype=np.float64)
    _check_matrix(arr, finite=True, config_index=config_index, path=path)
    return arr


@dataclass(frozen=True)
class GraphTopology:
    """Undirected simple graph held as a canonical unordered edge array.

    ``edges`` has shape (E, 2) with each row (i, j) satisfying i < j,
    rows unique and sorted lexicographically. The implied adjacency is
    symmetric with a zero diagonal. ``node_count`` is an int or a numpy
    integer >= 1; a bool or a float raises ShapeMismatch. Use
    :meth:`from_pairs` to build one from raw, possibly dirty pair data.
    """

    node_count: int
    edges: np.ndarray

    def __post_init__(self):
        _check_count(self.node_count, "node_count")
        edges = _edge_endpoints(self.edges, self.node_count)
        object.__setattr__(self, "edges", edges)
        if edges.size == 0:
            return
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
        _check_count(node_count, "node_count")
        _check_key_nodes(node_count)
        arr = _edge_endpoints(pairs, node_count)
        # The keys, then in place the edges: with the caller's pairs, two
        # arrays of their size.
        keys = np.empty(arr.size, dtype=np.int64)
        count, n_self = _canonical_keys(
            node_count, arr.shape[0], lambda lo, hi: arr[lo:hi], keys[:arr.shape[0]]
        )
        n_dup = arr.shape[0] - n_self - count
        return cls(node_count, _split_keys(keys, count, node_count)), n_self, n_dup


def magnitude_scale(values: np.ndarray) -> float:
    """The power of two to divide ``values`` by before any arithmetic on them:
    1.0 when max |values| lies inside ``MAGNITUDE_WINDOW`` (or is 0 or not
    finite), else the largest power of two not above it. The division is
    exact, so cosines are unchanged and distances shrink by the scale.
    """
    # The larger of max and -min: max |values| without an |values| array.
    peak = float(np.maximum(values.max(), -values.min()))
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
    _check_matrix(arr, config_index=config_index)
    rows = arr.shape[0]
    min_span = max(1, _SPAN_ELEMENTS // arr.shape[1])
    mean = arr.mean(axis=0)
    # A NaN or inf entry makes its column's mean non-finite, so finite input
    # pays only this test of d values; finite entries whose sums overflow
    # reach the NonFiniteScore below.
    if not np.isfinite(mean).all():
        _check_matrix(arr, finite=True, config_index=config_index)
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
        _require_rows(rows, graph, len(dims))
        dims.append(cols)
        del mat  # before the iterable reads the next one
    _require_configs(len(dims))
    return tuple(dims)
