"""Numpy references for the numbers gramstab reports.

Written from the definitions in the README, not from ``src/gramstab``,
so that a change to the program cannot change what it is checked
against. Results agree with the program to about 1e-15; the checks
allow 1e-12.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# Rows whose centered norm falls below this are zeroed and counted as
# degenerate, as the README states for preprocessing.
DEGENERATE_ROW_NORM = 1e-15
TOLERANCE = 1e-12


def close(got, want) -> bool:
    return abs(float(got) - float(want)) <= TOLERANCE * max(1.0, abs(float(want)))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def center_normalize(values: np.ndarray) -> tuple[np.ndarray, int]:
    centered = values - values.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=1))
    degenerate = norms < DEGENERATE_ROW_NORM
    centered[degenerate] = 0.0
    norms[degenerate] = 1.0
    return centered / norms[:, None], int(degenerate.sum())


def edge_mean_inner(unit: np.ndarray, edges: np.ndarray, block: int = 1 << 16) -> float:
    total = 0.0
    for start in range(0, len(edges), block):
        chunk = edges[start : start + block]
        total += float((unit[chunk[:, 0]] * unit[chunk[:, 1]]).sum())
    return total / len(edges)


def ggi_score(values: np.ndarray, edges: np.ndarray) -> tuple[float, int]:
    """Mean cosine over edges of one preprocessed configuration."""
    unit, degenerate = center_normalize(values)
    return edge_mean_inner(unit, edges), degenerate


def population_std(scores) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    return 0.0 if scores.max() == scores.min() else float(scores.std())


def _unit_rows(values: np.ndarray) -> np.ndarray:
    norms = np.sqrt((values * values).sum(axis=1))
    return values / np.where(norms == 0.0, 1.0, norms)[:, None]


def _guarded_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Row-wise cosines; a row pair with a zero vector scores 0 and is counted."""
    den = np.sqrt((a * a).sum(axis=1)) * np.sqrt((b * b).sum(axis=1))
    zero = den == 0.0
    return np.where(zero, 0.0, (a * b).sum(axis=1) / np.where(zero, 1.0, den)), int(zero.sum())


def knn_cosine(values: np.ndarray, k: int) -> np.ndarray:
    """Exact k most cosine-similar nodes, ties broken by ascending node id."""
    unit = _unit_rows(values)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    ids = np.broadcast_to(np.arange(len(values)), sims.shape)
    return np.lexsort((ids, -sims), axis=-1)[:, :k]


def _pairs(n: int):
    return [(l, m) for l in range(n) for m in range(l + 1, n)]


def knn_jaccard(neighbors: list[np.ndarray]) -> dict:
    k = neighbors[0].shape[1]
    out = {}
    for l, m in _pairs(len(neighbors)):
        inter = (neighbors[l][:, :, None] == neighbors[m][:, None, :]).sum(axis=(1, 2))
        out[(l, m)] = float(np.mean(inter / (2 * k - inter)))
    return out


def second_order_cosine(values: list[np.ndarray], neighbors: list[np.ndarray]) -> tuple[dict, int]:
    units = [_unit_rows(v) for v in values]
    out, zero_vectors = {}, 0
    for l, m in _pairs(len(values)):
        joined = np.sort(np.concatenate([neighbors[l], neighbors[m]], axis=1), axis=1)
        first = np.ones(joined.shape, dtype=bool)
        first[:, 1:] = joined[:, 1:] != joined[:, :-1]
        prof_l = np.einsum("ijd,id->ij", units[l][joined], units[l]) * first
        prof_m = np.einsum("ijd,id->ij", units[m][joined], units[m]) * first
        cos, zero = _guarded_cosines(prof_l, prof_m)
        out[(l, m)] = float(cos.mean())
        zero_vectors += zero
    return out, zero_vectors


def aligned_cosine(values: list[np.ndarray]) -> tuple[dict, int]:
    out, zero_vectors = {}, 0
    for l, m in _pairs(len(values)):
        u, _, vt = np.linalg.svd(values[l].T @ values[m])
        cos, zero = _guarded_cosines(values[l] @ (u @ vt), values[m])
        out[(l, m)] = float(cos.mean())
        zero_vectors += zero
    return out, zero_vectors


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


def _exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a - b) ** 2).sum(axis=1))


def hausdorff(values: list[np.ndarray]) -> dict:
    out = {}
    for l, m in _pairs(len(values)):
        a, b = values[l], values[m]
        sq = _sq_distances(a, b)
        forward = _exact(a, b[sq.argmin(axis=1)]).max()
        backward = _exact(b, a[sq.argmin(axis=0)]).max()
        out[(l, m)] = float(max(forward, backward))
    return out


def wasserstein(values: list[np.ndarray]) -> dict:
    out = {}
    for l, m in _pairs(len(values)):
        a, b = values[l], values[m]
        rows, cols = linear_sum_assignment(_sq_distances(a, b))
        out[(l, m)] = float(np.sqrt((_exact(a[rows], b[cols]) ** 2).sum()))
    return out
