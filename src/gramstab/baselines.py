"""Prior stability indices: aligned cosine, kNN-Jaccard, second-order
cosine, Hausdorff, and assignment-based Wasserstein.

All five compare configurations pairwise (unordered pairs l < m, self
pairs excluded) and aggregate by the mean over pairs, averaging over
nodes first where the index is node-wise. Each scores exactly the arrays
it is given. To compare them on the Gram index's centered unit rows,
center float64 copies with :func:`~gramstab.core.center_normalize_inplace`
first; the ``baseline`` command's centering flag does that to the arrays
it loads.

Memory: each index reads the float64 arrays it is given and never writes
into them; only a configuration of another dtype, converted once, or one
outside ``MAGNITUDE_WINDOW``, divided by its power-of-two scale, becomes a
new array (:func:`_prepared_values`). kNN search, the Hausdorff screen and
the Wasserstein certificate take rows in blocks against all |V| columns
(:func:`_row_blocks`): about ``_CACHE_ELEMENTS`` (128K) keys, 1 MB, while
that leaves at least ``_GEMM_ROWS`` (64) rows per block, which holds up to
|V| = 2048, and about ``_BLOCK_ELEMENTS`` (2M) keys, 16 MB, past it. Blocks
are written into buffers allocated once per call: kNN search holds two
blocks of keys and one of booleans plus the (|V|, k) neighbor lists, and
more only when whole rows tie; the Hausdorff screen and the Wasserstein
certificate hold one block, which every pair reuses (:class:`_Scratch`).
Hausdorff's exact recompute takes tiles of 1/64 of a 16 MB block. Hausdorff
adds a copy of each configuration without repeated rows, and Hausdorff and
Wasserstein two copies, two columns wider, of each of the two they are
comparing, also reused by every pair.
Only a Wasserstein pair whose certificate fails forms the dense |V| x |V|
cost matrix, while the block and the two copies are still held.

scipy is imported only by the Euclidean kNN search and by a Wasserstein pair
whose nearest-neighbour certificate fails, so that importing the package,
every command but ``baseline``, the Hausdorff, aligned-cosine and cosine kNN
indices, and Wasserstein on ensembles of near-copies do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .alignment import procrustes_align
from .core import MAGNITUDE_WINDOW, _require_configs, magnitude_scale, matrix_values
from .errors import InstanceTooLarge, KTooLarge, NonFiniteScore, ShapeMismatch

METRICS = ("cosine", "euclidean")

PAIR_CONVENTION = "unordered pairs l < m, self-pairs excluded"

_CACHE_ELEMENTS = 1 << 17  # keys per cache-sized row block: 1 MB of float64
_GEMM_ROWS = 64  # fewest rows for which a cache-sized block is used
_BLOCK_ELEMENTS = 1 << 21  # keys per row block past that: 16 MB of float64

# Nodes past which a Wasserstein pair that needs the dense |V| x |V| cost
# matrix (800 MB of float64 at the cap) raises InstanceTooLarge.
_DENSE_MAX_NODES = 10_000


@dataclass(frozen=True)
class PairwiseIndexReport:
    """Scores per unordered configuration pair (:data:`PAIR_CONVENTION`),
    their mean, and what the index counted as it ran."""

    per_pair: dict
    aggregate: float
    metadata: dict


def _row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Row slices of about ``_CACHE_ELEMENTS`` elements when that gives at
    least ``_GEMM_ROWS`` rows of ``row_size``, else of about
    ``_BLOCK_ELEMENTS``: a block that stays in cache is faster to write and
    read back, but a GEMM of a few rows against |V| columns is slow. A
    one-row tail joins the block before it: a one-row product goes through
    gemv, whose last bit can differ from the full product's."""
    step = _CACHE_ELEMENTS // max(row_size, 1)
    if step < _GEMM_ROWS:
        step = max(2, _BLOCK_ELEMENTS // max(row_size, 1))
    cuts = [*range(step, n_rows - 1, step), n_rows]
    return [slice(a, b) for a, b in zip([0, *cuts], cuts)]


def _row_norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", values, values))


def _unit_rows(values: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Rows divided by their ``norms``; a zero row stays zero."""
    return values / np.where(norms == 0.0, 1.0, norms)[:, None]


def _row_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Cosines of matching rows; a pair with a zero vector scores 0, counted."""
    na, nb = _row_norms(a), _row_norms(b)
    zero = (na == 0.0) | (nb == 0.0)
    scores = np.einsum("ij,ij->i", a, b) / np.where(zero, 1.0, na * nb)
    return np.where(zero, 0.0, scores), int(np.count_nonzero(zero))


def _node_mean(scores: np.ndarray) -> float:
    """Mean over nodes, summed in node order as a running total would."""
    return float(np.cumsum(scores)[-1] / len(scores))


def _prepared_values(ensemble, shared: bool = False) -> tuple[list, float]:
    """Each configuration, checked by :func:`~gramstab.core.matrix_values`
    and divided by its :func:`~gramstab.core.magnitude_scale`; with
    ``shared``, all by the largest one, which is returned so that distances
    can be multiplied back.

    Raises TooFewConfigs for under two configurations and ShapeMismatch
    for unequal row counts."""
    # Values are only read, never written: matrix_values does not copy a
    # float64 array, and a rescale makes a new one.
    values = [matrix_values(c, config_index=idx) for idx, c in enumerate(ensemble)]
    _require_configs(len(values))
    rows = values[0].shape[0]
    for idx, arr in enumerate(values):
        if arr.shape[0] != rows:
            raise ShapeMismatch(f"config {idx} has {arr.shape[0]} rows, expected {rows}",
                                config_index=idx)
    scales = [magnitude_scale(v) for v in values]
    if shared:
        scales = [max(scales)] * len(values)
    values = [v if s == 1.0 else v / s for v, s in zip(values, scales)]
    return values, scales[0]


def _require_equal_dims(values: list[np.ndarray], index_name: str) -> None:
    dim = values[0].shape[1]
    for idx, arr in enumerate(values):
        if arr.shape[1] != dim:
            raise ShapeMismatch(
                f"{index_name} requires equal embedding dimensions; config "
                f"{idx} has {arr.shape[1]} columns, expected {dim}",
                config_index=idx,
            )


def _pairwise(index_name, n_configs, score_pair, metadata) -> PairwiseIndexReport:
    """Report ``score_pair(l, m)`` for every pair l < m, and their mean;
    ``score_pair`` may add to counters in ``metadata`` as it goes. A pair
    score or mean past the float64 range raises NonFiniteScore, named
    after ``index_name``."""
    pair_scores = {pair: score_pair(*pair) for pair in combinations(range(n_configs), 2)}
    with np.errstate(over="ignore"):  # named below, not warned about on stderr
        aggregate = float(np.mean(list(pair_scores.values())))
    if not np.isfinite(aggregate):
        bad = [f"pair {p} scores {s!r}" for p, s in pair_scores.items() if not np.isfinite(s)]
        where = bad[0] if bad else f"the mean over pairs is {aggregate!r}"
        raise NonFiniteScore(f"{index_name}: {where}, past float64; rescale the embeddings")
    return PairwiseIndexReport(pair_scores, aggregate, metadata)


def knn_neighbors(mat, k: int, metric: str = "cosine") -> np.ndarray:
    """Exact k nearest neighbors of every node within one configuration,
    as a (node_count, k) array of node ids, most similar first.

    Under the "cosine" metric "nearest" means highest cosine similarity;
    under "euclidean", smallest distance. Self is excluded. Ties are
    broken by ascending node id, which is what makes downstream
    neighborhood indices permutation-invariant: per row block
    (:func:`_row_blocks`), each row's keys below its k-th smallest plus the
    lowest-id keys equal to it, k in all, are sorted on (key, node id).
    The keys (negated cosines, or distances), a copy of them that is
    partitioned in place and the mask of kept keys go into three buffers
    made once per call. When the row norms leave ``MAGNITUDE_WINDOW``, the
    values are first divided by their
    :func:`~gramstab.core.magnitude_scale`, so squares neither overflow nor
    underflow and the lists do not depend on the units. Raises KTooLarge
    unless 1 <= k < node_count, and ValueError for another metric.
    """
    values = matrix_values(mat)
    n = values.shape[0]
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} must satisfy 1 <= k < node_count={n}")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    with np.errstate(over="ignore"):  # an inf norm is rescaled below
        norms = _row_norms(values)
    if not MAGNITUDE_WINDOW[0] <= norms.max() <= MAGNITUDE_WINDOW[1]:
        scale = magnitude_scale(values)
        if scale != 1.0:
            values = values / scale
            norms = _row_norms(values)
    if metric == "cosine":
        unit = _unit_rows(values, norms)
    else:
        from scipy.spatial.distance import cdist
    blocks = _row_blocks(n, n)
    # Each block uses the leading rows, which are C-contiguous as out= needs.
    shape = (max(r.stop - r.start for r in blocks), n)
    key_buf, part_buf, near_buf = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    indices = np.empty((n, k), dtype=np.intp)
    for rows in blocks:
        m = rows.stop - rows.start
        keys, part, near = key_buf[:m], part_buf[:m], near_buf[:m]
        if metric == "cosine":
            # Negation is exact, so -u_i . u_j is -(u_i . u_j) bit for bit.
            np.matmul(-unit[rows], unit.T, out=keys)
        else:
            cdist(values[rows], values, out=keys)
        local = np.arange(m)
        keys[local, local + rows.start] = np.inf  # self sorts last
        np.copyto(part, keys)
        part.partition(k - 1, axis=1)
        kth = part[:, k - 1:k]
        np.less_equal(keys, kth, out=near)
        if np.count_nonzero(near) > k * m:  # some row ties at its k-th key
            _keep_lowest_id_ties(near, keys, kth, k, part)
        # k candidates per row, in id order: a stable sort on key breaks ties by id.
        col = (np.flatnonzero(near) % n).reshape(-1, k)
        order = np.argsort(np.take_along_axis(keys, col, axis=1), axis=1, kind="stable")
        indices[rows] = np.take_along_axis(col, order, axis=1)
    return indices


def _keep_lowest_id_ties(near, keys, kth, k, scratch):
    """Cut each row of ``near`` (``keys <= kth``) that holds more than k
    entries down to k: the keys below the row's k-th key, then its
    lowest-id keys equal to it. The running count of ties overwrites
    ``scratch``, a float64 array of the shape of ``keys``, once ``kth``,
    which may be a view of it, has been read."""
    counts = np.count_nonzero(near, axis=1)
    heavy = np.flatnonzero(counts > k)
    tie = (keys == kth)[heavy]
    # Every key below the k-th stays, so ``need`` ties do.
    need = k - counts[heavy] + np.count_nonzero(tie, axis=1)
    running = scratch.view(np.int32)[:len(heavy), :tie.shape[1]]
    drop = np.cumsum(tie, axis=1, dtype=np.int32, out=running) > need[:, None]
    drop &= tie
    near[heavy] &= ~drop


def _neighbor_union(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of two neighbor lists joined and sorted by node id, and a
    mask that is False on the second listing of an id both lists hold."""
    joined = np.sort(np.hstack([a, b]), axis=1)
    once = np.ones(joined.shape, dtype=bool)
    once[:, 1:] = joined[:, 1:] != joined[:, :-1]
    return joined, once


def knn_jaccard_index(ensemble, k: int, *, metric: str = "cosine") -> PairwiseIndexReport:
    """Mean per-node Jaccard overlap of k-neighborhoods across pairs.

    For each node and pair (l, m): |N_k^l n N_k^m| / |N_k^l u N_k^m|,
    averaged over nodes, then over unordered pairs, with the neighborhoods
    of :func:`knn_neighbors` under ``metric``. 1 means identical
    neighborhoods everywhere.
    """
    values, _ = _prepared_values(ensemble)
    neighbors = [knn_neighbors(v, k, metric) for v in values]

    def jaccard(l, m):
        union = np.count_nonzero(_neighbor_union(neighbors[l], neighbors[m])[1], axis=1)
        # Each list holds k distinct ids, so they share 2k - |union|.
        return _node_mean((2 * k - union) / union)

    return _pairwise("knn-jaccard", len(values), jaccard, {})


def second_order_cosine_index(ensemble, k: int, *, metric: str = "cosine") -> PairwiseIndexReport:
    """Cosine agreement of per-node similarity profiles across pairs.

    For node i and pair (l, m), the two k-neighborhoods of
    :func:`knn_neighbors` under ``metric`` are unioned into one list sorted
    by ascending node id; each configuration contributes the vector of
    cosine similarities between z_i and the listed neighbors, computed
    within its own space; the node's score is the cosine of those two
    vectors. An all-zero similarity vector scores 0 and is counted in the
    report metadata.
    """
    values, _ = _prepared_values(ensemble)
    units = [_unit_rows(v, _row_norms(v)) for v in values]
    neighbors = [knn_neighbors(v, k, metric) for v in values]
    n = len(neighbors[0])
    metadata = {"zero_vector_scores": 0}

    def profile_cosine(l, m):
        pair, scores = (units[l], units[m]), np.empty(n)
        for rows in _row_blocks(n, 2 * k * max(u.shape[1] for u in pair)):
            joined, once = _neighbor_union(neighbors[l][rows], neighbors[m][rows])
            # A node in both lists is listed once in the union: its repeat
            # becomes zero padding, which no dot product or norm sees.
            profiles = [np.einsum("ijd,id->ij", u[joined], u[rows]) * once for u in pair]
            scores[rows], zeros = _row_cosines(*profiles)
            metadata["zero_vector_scores"] += zeros
        return _node_mean(scores)

    return _pairwise("second-order-cosine", len(values), profile_cosine, metadata)


def aligned_cosine_index(ensemble) -> PairwiseIndexReport:
    """Mean per-node cosine after Procrustes-aligning each pair.

    For pair (l, m) the source embeddings are rotated by the orthogonal
    Procrustes solution before row-wise cosines are taken, so any purely
    orthogonal discrepancy between the spaces scores 1. Requires equal
    embedding dimensions across configurations.
    """
    values, _ = _prepared_values(ensemble)
    _require_equal_dims(values, "aligned-cosine")
    metadata = {"zero_vector_scores": 0, "degenerate_alignments": 0}

    def aligned_cosine(l, m):
        alignment = procrustes_align(values[l], values[m])
        metadata["degenerate_alignments"] += alignment.degenerate
        scores, zeros = _row_cosines(values[l] @ alignment.q, values[m])
        metadata["zero_vector_scores"] += zeros
        return _node_mean(scores)

    return _pairwise("aligned-cosine", len(values), aligned_cosine, metadata)


class _Scratch:
    """Float64 storage that one index call reuses for every pair.

    A pair that allocated its clouds and screen blocks afresh would free
    them at its end, and glibc hands blocks of that size back to the
    system, so the next pair would fault in new pages: about 800 faults
    per pair at |V| = 1000, d = 32, which cost more than the screen's
    arithmetic."""

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def take(self, *shape: int) -> np.ndarray:
        """A C-contiguous array of ``shape`` over the front of the storage,
        which grows when it is smaller; its values are undefined."""
        size = math.prod(shape)
        if self._flat.size < size:
            self._flat = np.empty(size)
        return self._flat[:size].reshape(shape)


class _Cloud(NamedTuple):
    """One configuration as the screen and the exact recompute read it."""

    points: np.ndarray  # x itself, not copied
    norms: np.ndarray  # squared row norms |x_i|^2
    left: np.ndarray  # [-2x, |x|^2, 1]
    right: np.ndarray  # [x, 1, |x|^2]

    @classmethod
    def of(cls, x: np.ndarray, scratch: _Scratch) -> "_Cloud":
        """The cloud of ``x``, written over ``scratch``."""
        n, d = x.shape
        flat = scratch.take(n * (2 * d + 5))
        left, right, norms = np.split(flat, np.cumsum([n * (d + 2)] * 2))
        left, right = left.reshape(n, -1), right.reshape(n, -1)
        np.einsum("ij,ij->i", x, x, out=norms)
        np.multiply(x, -2.0, out=left[:, :d])
        left[:, d], left[:, d + 1] = norms, 1.0
        right[:, :d], right[:, d], right[:, d + 1] = x, 1.0, norms
        return cls(x, norms, left, right)


def _distinct_rows(values: np.ndarray) -> np.ndarray:
    """One copy of each row, compared as bytes (a sort of void scalars is
    several times faster than ``np.unique(..., axis=0)``)."""
    values = np.ascontiguousarray(values)
    rows = values.view(np.dtype((np.void, values.itemsize * values.shape[1])))
    return np.unique(rows).view(values.dtype).reshape(-1, values.shape[1])


def _screen_tolerance(a: _Cloud, b: _Cloud) -> np.ndarray:
    """Per row i of ``a``, a bound on |approx_ij - exact_ij| over every j,
    where approx_ij = a.left[i] . b.right[j] and exact_ij comes from
    :func:`_exact_sq`.

    With u = eps/2, gamma_n = n u / (1 - n u), D = |a_i - b_j|^2 and
    S = |a_i|^2 + |b_j|^2 <= |a_i|^2 + max_j |b_j|^2: each computed norm is
    within gamma_d of its own value, and the GEMM sum of d + 2 terms is
    within gamma_(d+2) of their absolute sum 2|a_i.b_j| + |a_i|^2 + |b_j|^2
    <= 2S (any summation order, with or without FMA; -2x is exact), so
    approx is within (3d + 4) u S of D. The column-order sum rounds each
    difference, each square and d - 1 additions once, so it is within
    gamma_(d+2) D <= (2d + 4) u S of D. Together that is (5d + 8) u S plus
    O(d^2 u^2 S). The bound c (d + 4) eps S with c = 3 is (6d + 24) u S,
    leaving at least 17u S for the rounding of the candidate test in
    :func:`_may_be_row_minimum`, which is at most 2u S on each side. Underflow
    adds at most 2^-1075 per product, 4d of them in all, well under
    3 (d + 4) 2^-1072. Values come from ``_prepared_values``, so
    max |v| <= 2^100 and nothing overflows.
    """
    eps = np.finfo(np.float64).eps
    return 3 * (a.points.shape[1] + 4) * (eps * (a.norms + b.norms.max()) + 2.0**-1072)


def _exact_sq(a_columns: np.ndarray, b_columns: np.ndarray,
              pair=np.subtract.outer) -> np.ndarray:
    """Squared distances between rows of a and rows of b, given their columns
    as rows, summed over the columns in order from 0.0: scipy's ``cdist``
    sums them so, for "sqeuclidean" and for "euclidean" before its square
    root. ``pair`` takes every row of a with every row of b; ``np.subtract``
    takes row i with row i."""
    total = 0.0
    for x, y in zip(a_columns, b_columns):
        diff = pair(x, y)
        diff *= diff
        total += diff  # the first column makes the array
    return total


def _screen_blocks(a: _Cloud, b: _Cloud, scratch: _Scratch):
    """Each row block of ``a`` (:func:`_row_blocks`) with its screened
    squared distances to every row of ``b``, a.left[i] . b.right[j]. Every
    block is written over ``scratch``, which the next block overwrites."""
    blocks = _row_blocks(len(a.norms), len(b.norms))
    buffer = scratch.take(max(r.stop - r.start for r in blocks), len(b.norms))
    for rows in blocks:
        yield rows, np.matmul(a.left[rows], b.right.T, out=buffer[:rows.stop - rows.start])


def _may_be_row_minimum(approx: np.ndarray, low: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """The entries of a screened block that may hold their row's exact
    minimum, given each row's screened minimum ``low`` and tolerance ``tol``:
    every entry within twice the tolerance of its row's minimum. Any other
    entry is exactly larger than the row's minimum."""
    return approx <= (low + 2 * tol)[:, None]


def _directed_sq(a: _Cloud, b: _Cloud, low: np.ndarray) -> float:
    """max_i min_j of the exact squared distance from the rows of ``a`` to
    those of ``b``, given each row's screened minimum ``low``.

    Only a row whose screened minimum plus the tolerance reaches the
    largest screened minimum less its tolerance can hold the maximum, and
    in it only a column within twice the tolerance of its minimum can hold
    the row's minimum; those pairs are recomputed exactly. Candidate rows go
    in tiles of 1/64 block (256 KB), which stay in cache over the d column
    passes.
    """
    tol = _screen_tolerance(a, b)
    rows = np.flatnonzero(low + tol >= (low - tol).max())
    worst = 0.0
    for tile in _row_blocks(len(rows), 64 * len(b.norms)):
        r = rows[tile]
        near = _may_be_row_minimum(a.left[r] @ b.right.T, low[r], tol[r])
        cols = np.flatnonzero(near.any(axis=0))
        exact = np.where(near[:, cols], _exact_sq(a.points[r].T, b.points[cols].T), np.inf)
        worst = max(worst, float(exact.min(axis=1).max()))
    return worst


def hausdorff_index(ensemble) -> PairwiseIndexReport:
    """Mean symmetric Hausdorff distance between pairs of point clouds.

    d_H is the larger of the two directed sup-inf Euclidean point-to-set
    distances; 0 exactly when the two clouds coincide as sets.

    Exact without a dense distance matrix, pruning candidates as Taha and
    Hanbury do ("An Efficient Algorithm for Calculating the Exact Hausdorff
    Distance", IEEE TPAMI 2015): one GEMM per row block screens every pair
    as |a_i|^2 + |b_j|^2 - 2 a_i.b_j, and only the pairs that the screen's
    error bound cannot rule out are recomputed, in cdist's column order.
    The square root is monotone, so each distance equals cdist's bit for bit.
    """
    values, scale = _prepared_values(ensemble, shared=True)
    _require_equal_dims(values, "hausdorff")
    # d_H compares point sets, so a repeated point changes no distance.
    # Dropping repeats keeps a collapsed configuration from tying every
    # pair, which would send them all to the exact recompute.
    values = [_distinct_rows(v) for v in values]
    clouds, screen = (_Scratch(), _Scratch()), _Scratch()

    def hausdorff(l, m):
        a, b = (_Cloud.of(values[i], s) for i, s in zip((l, m), clouds))
        row_low, col_low = np.empty(len(a.norms)), np.full(len(b.norms), np.inf)
        for rows, approx in _screen_blocks(a, b, screen):
            approx.min(axis=1, out=row_low[rows])
            np.minimum(col_low, approx.min(axis=0), out=col_low)
        worst = max(_directed_sq(a, b, row_low), _directed_sq(b, a, col_low))
        return scale * float(np.sqrt(worst))

    return _pairwise("hausdorff", len(values), hausdorff, {})


def _nearest_permutation(a: _Cloud, b: _Cloud, scratch: _Scratch) -> np.ndarray | None:
    """Each row's nearest row of ``b``, when that is provably the unique
    optimal assignment; otherwise None.

    Row blocks go through the Hausdorff screen (:func:`_screen_blocks`),
    written over ``scratch``. The certificate holds when every row has
    exactly one candidate (:func:`_may_be_row_minimum`), so that its
    squared distance to that
    column is strictly below every other in the column-order arithmetic of
    :func:`_exact_sq`, and no column is claimed twice. Sum_i min_j c_ij is
    a lower bound on the cost of every assignment (the column reduction of
    Jonker and Volgenant, Computing 1987), and this permutation alone
    attains it. The check stops at the first block that fails it.
    """
    tol = _screen_tolerance(a, b)
    match = np.empty(len(a.norms), dtype=np.intp)
    claimed = np.zeros(len(b.norms), dtype=bool)
    for rows, approx in _screen_blocks(a, b, scratch):
        match[rows] = cols = approx.argmin(axis=1)
        claimed[cols] = True
        if np.count_nonzero(claimed) != rows.stop:  # a column claimed twice
            return None
        low = np.take_along_axis(approx, cols[:, None], axis=1)[:, 0]
        if np.count_nonzero(_may_be_row_minimum(approx, low, tol[rows])) != len(cols):
            return None  # a row with two candidates
    return match


def wasserstein_index(ensemble) -> PairwiseIndexReport:
    """Minimum total squared displacement over node bijections, rooted.

    For pair (l, m): W = (min over bijections eta of
    sum_i ||z_i^l - z_eta(i)^m||^2)^(1/2), solved exactly as a linear
    assignment on the squared-distance cost matrix. When every node's
    nearest counterpart is strictly nearest and no two nodes share one,
    that permutation is the unique optimum (:func:`_nearest_permutation`):
    only its n squared distances are computed, in ``cdist``'s column order,
    and the row-blocked check holds one block of :func:`_row_blocks` (1 MB
    up to |V| = 2048, about 16 MB past it). Otherwise scipy
    builds the dense |V| x |V| cost matrix and solves the assignment; past
    ``_DENSE_MAX_NODES`` (10 000) nodes such a pair raises InstanceTooLarge
    instead, naming that cap.
    Either way W is scipy's float bit for bit: the same n costs, summed the
    same way.
    """
    values, scale = _prepared_values(ensemble, shared=True)
    _require_equal_dims(values, "wasserstein")
    n_nodes = values[0].shape[0]
    clouds, screen = (_Scratch(), _Scratch()), _Scratch()

    def wasserstein(l, m):
        a, b = (_Cloud.of(values[i], s) for i, s in zip((l, m), clouds))
        match = _nearest_permutation(a, b, screen)
        if match is not None:
            matched = _exact_sq(values[l].T, values[m][match].T, np.subtract)
        elif n_nodes > _DENSE_MAX_NODES:
            raise InstanceTooLarge(
                f"wasserstein pair ({l}, {m}) needs a dense {n_nodes} x {n_nodes} "
                f"cost matrix; cap is {_DENSE_MAX_NODES} nodes"
            )
        else:
            from scipy.optimize import linear_sum_assignment
            from scipy.spatial.distance import cdist

            cost = cdist(values[l], values[m], metric="sqeuclidean")
            matched = cost[linear_sum_assignment(cost)]
        return scale * float(np.sqrt(matched.sum()))

    return _pairwise("wasserstein", len(values), wasserstein, {})
