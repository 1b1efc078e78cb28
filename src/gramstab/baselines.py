"""Prior stability indices: aligned cosine, kNN-Jaccard, second-order
cosine, Hausdorff, and assignment-based Wasserstein.

All five compare configurations pairwise (unordered pairs l < m, self
pairs excluded) and aggregate by the mean over pairs, averaging over
nodes first where the index is node-wise. None of them preprocess their
inputs by default; pass ``preprocess=True`` to apply the same
center-normalize step the Gram index uses, for controlled comparisons.

Memory: kNN search, the Hausdorff screen and the Wasserstein certificate
take rows in blocks of ``_BLOCK_ELEMENTS`` (2M) keys against all |V|
columns, and Hausdorff's exact recompute takes tiles of 1/64 block. The peak
is about two 16 MB blocks plus the (|V|, k) neighbor lists, about 2.3 blocks
when whole rows tie; Hausdorff adds a copy of each configuration without
repeated rows, and Hausdorff and Wasserstein three copies of each of the two
they are comparing. Only a Wasserstein pair whose certificate fails forms
the dense |V| x |V| cost matrix.

scipy is imported only by the Euclidean kNN search and by a Wasserstein pair
whose nearest-neighbour certificate fails, so that importing the package,
every command but ``baseline``, the Hausdorff, aligned-cosine and cosine kNN
indices, and Wasserstein on ensembles of near-copies do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .alignment import procrustes_align
from .core import center_normalize_inplace, magnitude_scale, matrix_values
from .errors import InstanceTooLarge, KTooLarge, NonFiniteScore, ShapeMismatch, TooFewConfigs

_METRICS = ("cosine", "euclidean")

PAIR_CONVENTION = "unordered pairs l < m, self-pairs excluded"

_BLOCK_ELEMENTS = 1 << 21  # keys per row block: 16 MB of float64


@dataclass(frozen=True)
class PairwiseIndexReport:
    """Scores per unordered configuration pair plus their mean."""

    index_name: str
    per_pair: dict
    aggregate: float
    n_configs: int
    pair_convention: str = PAIR_CONVENTION
    metadata: dict = field(default_factory=dict)


def _row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Row slices of about ``_BLOCK_ELEMENTS`` elements. A one-row tail
    joins the block before it: a one-row product goes through gemv, whose
    last bit can differ from the full product's."""
    step = max(2, _BLOCK_ELEMENTS // max(row_size, 1))
    cuts = [*range(step, n_rows - 1, step), n_rows]
    return [slice(a, b) for a, b in zip([0, *cuts], cuts)]


def _unit_rows(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", values, values))
    return values / np.where(norms == 0.0, 1.0, norms)[:, None]


def _row_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Cosines of matching rows; a pair with a zero vector scores 0, counted."""
    na, nb = (np.sqrt(np.einsum("ij,ij->i", x, x)) for x in (a, b))
    zero = (na == 0.0) | (nb == 0.0)
    scores = np.einsum("ij,ij->i", a, b) / np.where(zero, 1.0, na * nb)
    return np.where(zero, 0.0, scores), int(np.count_nonzero(zero))


def _node_mean(scores: np.ndarray) -> float:
    """Mean over nodes, summed in node order as a running total would."""
    return float(np.cumsum(scores)[-1] / len(scores))


def _prepared_values(ensemble, preprocess: bool, shared: bool = False) -> tuple[list, float]:
    """Each configuration, checked by :func:`~gramstab.core.matrix_values`,
    center-normalized if asked, divided by its
    :func:`~gramstab.core.magnitude_scale`; with ``shared``, all by the largest
    one, which is returned so that distances can be multiplied back.

    Raises TooFewConfigs for under two configurations, ShapeMismatch for
    unequal row counts, and NonFiniteScore when centering overflows."""
    values = [matrix_values(c) for c in ensemble]
    if len(values) < 2:
        raise TooFewConfigs(f"need at least 2 configurations, got {len(values)}")
    rows = values[0].shape[0]
    for idx, arr in enumerate(values):
        if arr.shape[0] != rows:
            raise ShapeMismatch(f"config {idx} has {arr.shape[0]} rows, expected {rows}",
                                config_index=idx)
    if preprocess:
        # Center-normalizing works on copies; unprocessed values are only read.
        values = [v.copy() for v in values]
        for idx, arr in enumerate(values):
            center_normalize_inplace(arr)
            if not np.isfinite(arr).all():
                raise NonFiniteScore(
                    f"config {idx}: centered values are not finite; the entries "
                    f"are too large for float64 arithmetic (rescale the embeddings)",
                    config_index=idx,
                )
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
    score or mean past the float64 range raises NonFiniteScore."""
    pair_scores = {pair: score_pair(*pair) for pair in combinations(range(n_configs), 2)}
    aggregate = float(np.mean([pair_scores[key] for key in sorted(pair_scores)]))
    if not np.isfinite(aggregate):
        bad = [f"pair {p} scores {s!r}" for p, s in pair_scores.items() if not np.isfinite(s)]
        where = bad[0] if bad else f"the mean over pairs is {aggregate!r}"
        raise NonFiniteScore(f"{index_name}: {where}, past float64; rescale the embeddings")
    return PairwiseIndexReport(index_name, pair_scores, aggregate, n_configs, metadata=metadata)


def knn_neighbors(mat, k: int, metric: str = "cosine") -> np.ndarray:
    """Exact k nearest neighbors of every node within one configuration,
    as a (node_count, k) array of node ids, most similar first.

    Under the "cosine" metric "nearest" means highest cosine similarity;
    under "euclidean", smallest distance. Self is excluded. Ties are
    broken by ascending node id, which is what makes downstream
    neighborhood indices permutation-invariant: per row block, each
    row's keys below its k-th smallest plus the lowest-id keys equal to
    it, k in all, are sorted on (key, node id). Raises KTooLarge unless
    1 <= k < node_count, and ValueError for another metric.
    """
    values = matrix_values(mat)
    n = values.shape[0]
    if not 1 <= k < n:
        raise KTooLarge(f"k={k} must satisfy 1 <= k < node_count={n}")
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    unit = _unit_rows(values) if metric == "cosine" else None
    if unit is None:
        from scipy.spatial.distance import cdist
    indices = np.empty((n, k), dtype=np.intp)
    for rows in _row_blocks(n, n):
        keys = cdist(values[rows], values) if unit is None else -(unit[rows] @ unit.T)
        local = np.arange(keys.shape[0])
        keys[local, local + rows.start] = np.inf  # self sorts last
        kth = np.partition(keys, k - 1, axis=1)[:, [k - 1]]
        near = keys <= kth
        if np.count_nonzero(near) > k * local.size:  # some row ties at its k-th key
            _keep_lowest_id_ties(near, keys, kth, k)
        # k candidates per row, in id order: a stable sort on key breaks ties by id.
        col = np.nonzero(near)[1].reshape(-1, k)
        order = np.argsort(np.take_along_axis(keys, col, axis=1), axis=1, kind="stable")
        indices[rows] = np.take_along_axis(col, order, axis=1)
    return indices


def _keep_lowest_id_ties(near, keys, kth, k):
    """Cut each row of ``near`` (``keys <= kth``) that holds more than k
    entries down to k: the keys below the row's k-th key, then its
    lowest-id keys equal to it."""
    counts = np.count_nonzero(near, axis=1)
    heavy = np.flatnonzero(counts > k)
    tie = (keys == kth)[heavy]
    # Every key below the k-th stays, so ``need`` ties do.
    need = k - counts[heavy] + np.count_nonzero(tie, axis=1)
    drop = np.cumsum(tie, axis=1, dtype=np.int32) > need[:, None]
    drop &= tie
    near[heavy] &= ~drop


def knn_jaccard_index(
    ensemble, k: int, *, metric: str = "cosine", preprocess: bool = False
) -> PairwiseIndexReport:
    """Mean per-node Jaccard overlap of k-neighborhoods across pairs.

    For each node and pair (l, m): |N_k^l n N_k^m| / |N_k^l u N_k^m|,
    averaged over nodes, then over unordered pairs, with the neighborhoods
    of :func:`knn_neighbors` under ``metric``. 1 means identical
    neighborhoods everywhere.
    """
    values, _ = _prepared_values(ensemble, preprocess)
    neighbors = [knn_neighbors(v, k, metric) for v in values]
    n = len(neighbors[0])

    def jaccard(l, m):
        inter = np.concatenate([
            (neighbors[l][rows, :, None] == neighbors[m][rows, None, :]).sum(axis=(1, 2))
            for rows in _row_blocks(n, k * k)
        ])
        # Each list holds k distinct ids, so the union has 2k - inter.
        return _node_mean(inter / (2 * k - inter))

    metadata = {"k": k, "metric": metric, "preprocess": preprocess}
    return _pairwise("knn-jaccard", len(values), jaccard, metadata)


def second_order_cosine_index(
    ensemble, k: int, *, metric: str = "cosine", preprocess: bool = False
) -> PairwiseIndexReport:
    """Cosine agreement of per-node similarity profiles across pairs.

    For node i and pair (l, m), the two k-neighborhoods of
    :func:`knn_neighbors` under ``metric`` are unioned into one list sorted
    by ascending node id; each configuration contributes the vector of
    cosine similarities between z_i and the listed neighbors, computed
    within its own space; the node's score is the cosine of those two
    vectors. An all-zero similarity vector scores 0 and is counted in the
    report metadata.
    """
    values, _ = _prepared_values(ensemble, preprocess)
    units = [_unit_rows(v) for v in values]
    neighbors = [knn_neighbors(v, k, metric) for v in values]
    n = len(neighbors[0])
    metadata = {"k": k, "metric": metric, "preprocess": preprocess, "zero_vector_scores": 0}

    def profile_cosine(l, m):
        pair, scores = (units[l], units[m]), np.empty(n)
        for rows in _row_blocks(n, 2 * k * max(u.shape[1] for u in pair)):
            joined = np.sort(np.hstack([neighbors[l][rows], neighbors[m][rows]]), axis=1)
            # A node in both lists is listed once in the union: its repeat
            # becomes zero padding, which no dot product or norm sees.
            once = np.ones(joined.shape, dtype=bool)
            once[:, 1:] = joined[:, 1:] != joined[:, :-1]
            profiles = [np.einsum("ijd,id->ij", u[joined], u[rows]) * once for u in pair]
            scores[rows], zeros = _row_cosines(*profiles)
            metadata["zero_vector_scores"] += zeros
        return _node_mean(scores)

    return _pairwise("second-order-cosine", len(values), profile_cosine, metadata)


def aligned_cosine_index(ensemble, *, preprocess: bool = False) -> PairwiseIndexReport:
    """Mean per-node cosine after Procrustes-aligning each pair.

    For pair (l, m) the source embeddings are rotated by the orthogonal
    Procrustes solution before row-wise cosines are taken, so any purely
    orthogonal discrepancy between the spaces scores 1. Requires equal
    embedding dimensions across configurations.
    """
    values, _ = _prepared_values(ensemble, preprocess)
    _require_equal_dims(values, "aligned-cosine")
    metadata = {"preprocess": preprocess, "zero_vector_scores": 0, "degenerate_alignments": 0}

    def aligned_cosine(l, m):
        alignment = procrustes_align(values[l], values[m])
        metadata["degenerate_alignments"] += alignment.degenerate
        scores, zeros = _row_cosines(values[l] @ alignment.q, values[m])
        metadata["zero_vector_scores"] += zeros
        return _node_mean(scores)

    return _pairwise("aligned-cosine", len(values), aligned_cosine, metadata)


class _Cloud(NamedTuple):
    """One configuration as the screen and the exact recompute read it."""

    norms: np.ndarray  # squared row norms |x_i|^2
    left: np.ndarray  # [-2x, |x|^2, 1]
    right: np.ndarray  # [x, 1, |x|^2]
    columns: np.ndarray  # x.T, contiguous

    @classmethod
    def of(cls, x: np.ndarray) -> "_Cloud":
        norms = np.einsum("ij,ij->i", x, x)[:, None]
        ones = np.ones_like(norms)
        return cls(norms[:, 0], np.hstack([-2 * x, norms, ones]),
                   np.hstack([x, ones, norms]), np.ascontiguousarray(x.T))


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
    return 3 * (len(a.columns) + 4) * (eps * (a.norms + b.norms.max()) + 2.0**-1072)


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
        exact = np.where(near[:, cols], _exact_sq(a.columns[:, r], b.columns[:, cols]), np.inf)
        worst = max(worst, float(exact.min(axis=1).max()))
    return worst


def hausdorff_index(ensemble, *, preprocess: bool = False) -> PairwiseIndexReport:
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
    values, scale = _prepared_values(ensemble, preprocess, shared=True)
    _require_equal_dims(values, "hausdorff")
    # d_H compares point sets, so a repeated point changes no distance.
    # Dropping repeats keeps a collapsed configuration from tying every
    # pair, which would send them all to the exact recompute.
    values = [_distinct_rows(v) for v in values]

    def hausdorff(l, m):
        a, b = _Cloud.of(values[l]), _Cloud.of(values[m])
        row_low, col_low = np.empty(len(a.norms)), np.full(len(b.norms), np.inf)
        for rows in _row_blocks(len(a.norms), len(b.norms)):
            approx = a.left[rows] @ b.right.T
            approx.min(axis=1, out=row_low[rows])
            np.minimum(col_low, approx.min(axis=0), out=col_low)
        worst = max(_directed_sq(a, b, row_low), _directed_sq(b, a, col_low))
        return scale * float(np.sqrt(worst))

    return _pairwise("hausdorff", len(values), hausdorff, {"preprocess": preprocess})


def _nearest_permutation(a: _Cloud, b: _Cloud) -> np.ndarray | None:
    """Each row's nearest row of ``b``, when that is provably the unique
    optimal assignment; otherwise None.

    Row blocks go through the Hausdorff screen. The certificate holds when
    every row has exactly one candidate (:func:`_may_be_row_minimum`), so
    that its squared distance to that column is strictly below every other
    in the column-order arithmetic of :func:`_exact_sq`, and no column is
    claimed twice. Sum_i min_j c_ij is a lower bound on the cost of every
    assignment (the column reduction of Jonker and Volgenant, Computing
    1987), and this permutation alone attains it. The check stops at the
    first block that fails it.
    """
    tol = _screen_tolerance(a, b)
    match = np.empty(len(a.norms), dtype=np.intp)
    claimed = np.zeros(len(b.norms), dtype=bool)
    for rows in _row_blocks(len(a.norms), len(b.norms)):
        approx = a.left[rows] @ b.right.T
        match[rows] = cols = approx.argmin(axis=1)
        claimed[cols] = True
        if np.count_nonzero(claimed) != rows.stop:  # a column claimed twice
            return None
        low = np.take_along_axis(approx, cols[:, None], axis=1)[:, 0]
        if np.count_nonzero(_may_be_row_minimum(approx, low, tol[rows])) != len(cols):
            return None  # a row with two candidates
        del approx  # before the next block's is made
    return match


def wasserstein_index(
    ensemble, *, preprocess: bool = False, max_nodes: int = 10_000
) -> PairwiseIndexReport:
    """Minimum total squared displacement over node bijections, rooted.

    For pair (l, m): W = (min over bijections eta of
    sum_i ||z_i^l - z_eta(i)^m||^2)^(1/2), solved exactly as a linear
    assignment on the squared-distance cost matrix. When every node's
    nearest counterpart is strictly nearest and no two nodes share one,
    that permutation is the unique optimum (:func:`_nearest_permutation`):
    only its n squared distances are computed, in ``cdist``'s column order,
    and the row-blocked check holds about one 16 MB block. Otherwise scipy
    builds the dense |V| x |V| cost matrix and solves the assignment; past
    ``max_nodes`` nodes such a pair raises InstanceTooLarge instead. Either
    way W is scipy's float bit for bit: the same n costs, summed the same way.
    """
    values, scale = _prepared_values(ensemble, preprocess, shared=True)
    _require_equal_dims(values, "wasserstein")
    n_nodes = values[0].shape[0]

    def wasserstein(l, m):
        match = _nearest_permutation(_Cloud.of(values[l]), _Cloud.of(values[m]))
        if match is not None:
            matched = _exact_sq(values[l].T, values[m][match].T, np.subtract)
        elif n_nodes > max_nodes:
            raise InstanceTooLarge(
                f"wasserstein pair ({l}, {m}) needs a dense {n_nodes} x {n_nodes} "
                f"cost matrix; cap is {max_nodes} nodes"
            )
        else:
            from scipy.optimize import linear_sum_assignment
            from scipy.spatial.distance import cdist

            cost = cdist(values[l], values[m], metric="sqeuclidean")
            matched = cost[linear_sum_assignment(cost)]
        return scale * float(np.sqrt(matched.sum()))

    metadata = {"preprocess": preprocess, "max_nodes": max_nodes}
    return _pairwise("wasserstein", len(values), wasserstein, metadata)
