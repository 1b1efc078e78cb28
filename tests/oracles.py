"""Brute-force reference implementations used to cross-check the library.

Everything here favors obviousness over speed: dense matrices, python
loops over nodes, exhaustive enumeration over permutations. The test
suite compares the library's vectorized or solver-backed paths against
these on instances small enough for the slow route.
"""

import itertools
import math
import re

import numpy as np

# Mirrors gramstab.core.DEGENERATE_ROW_NORM on purpose: the two
# implementations must agree on which rows count as degenerate.
DEGENERATE_ROW_NORM = 1e-15


def center_normalize_dense(values):
    """Column-center then row-normalize, written out row by row.

    A row is degenerate, and becomes all zeros, when its centered norm is
    zero or below DEGENERATE_ROW_NORM times the configuration's magnitude:
    the larger of the largest centered row norm and the largest |column
    mean|. Norms come from ``math.hypot``, which neither over- nor
    underflows on finite entries.
    """
    out = np.array(values, dtype=np.float64, copy=True)
    mean = out.mean(axis=0, keepdims=True)
    out = out - mean
    norms = [math.hypot(*row) for row in out]
    magnitude = max(max(norms), float(np.abs(mean).max()))
    for i in range(out.shape[0]):
        if norms[i] == 0.0 or norms[i] < DEGENERATE_ROW_NORM * magnitude:
            out[i] = 0.0
        else:
            out[i] = out[i] / norms[i]
    return out


def dense_edge_summary(values, edges, node_count):
    """Edge-restricted Gram summary via the full masked Gram matrix.

    Builds the dense symmetric adjacency A and the dense Gram ZZ^T, then
    returns sum(A * G) / (2|E|) over all ordered pairs. This is the
    definition the library's edge-indexed gather must reproduce.
    """
    values = np.asarray(values, dtype=np.float64)
    adjacency = np.zeros((node_count, node_count))
    for i, j in np.asarray(edges):
        adjacency[i, j] = 1.0
        adjacency[j, i] = 1.0
    gram = values @ values.T
    n_edges = len(edges)
    return float((adjacency * gram).sum()) / (2 * n_edges)


def ggi_dense(config_values, edges, node_count):
    """Index via dense summaries; numpy's population std on the score vector."""
    scores = []
    for values in config_values:
        scores.append(dense_edge_summary(center_normalize_dense(values), edges, node_count))
    return float(np.std(np.asarray(scores)))


def knn_brute(values, k, metric="cosine"):
    """Per-node k nearest neighbors as python sorting on explicit keys.

    Ties break toward the smaller node id, encoded directly in the sort
    key rather than relying on sort stability.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    out = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            if metric == "cosine":
                ni = math.sqrt(float(np.dot(values[i], values[i])))
                nj = math.sqrt(float(np.dot(values[j], values[j])))
                if ni == 0.0 or nj == 0.0:
                    sim = 0.0
                else:
                    sim = float(np.dot(values[i], values[j])) / (ni * nj)
                scored.append((-sim, j))
            else:
                dist = math.sqrt(float(np.dot(values[i] - values[j], values[i] - values[j])))
                scored.append((dist, j))
        scored.sort()
        out.append([j for _, j in scored[:k]])
    return out


def jaccard_brute(values_l, values_m, k, metric="cosine"):
    """Mean per-node Jaccard overlap of neighbor sets, via python sets."""
    nl = knn_brute(values_l, k, metric)
    nm = knn_brute(values_m, k, metric)
    total = 0.0
    for i in range(len(nl)):
        a, b = set(nl[i]), set(nm[i])
        total += len(a & b) / len(a | b)
    return total / len(nl)


def _cos_or_zero(a, b):
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def second_order_brute(values_l, values_m, k, metric="cosine"):
    """Mean per-node cosine of similarity profiles over unioned neighbors.

    The union of the two k-neighborhoods is listed in ascending node id;
    each configuration's profile holds cosine(z_i, z_j) computed in its
    own space; the node's score is the cosine between the two profiles,
    with an all-zero profile scoring 0.
    """
    return second_order_brute_with_zeros(values_l, values_m, k, metric)[0]


def second_order_brute_with_zeros(values_l, values_m, k, metric="cosine"):
    """``second_order_brute`` plus the count of nodes with an all-zero
    profile in either configuration."""
    values_l = np.asarray(values_l, dtype=np.float64)
    values_m = np.asarray(values_m, dtype=np.float64)
    nl = knn_brute(values_l, k, metric)
    nm = knn_brute(values_m, k, metric)
    total = 0.0
    zeros = 0
    n = values_l.shape[0]
    for i in range(n):
        joined = sorted(set(nl[i]) | set(nm[i]))
        profile_l = np.array([_cos_or_zero(values_l[i], values_l[j]) for j in joined])
        profile_m = np.array([_cos_or_zero(values_m[i], values_m[j]) for j in joined])
        zeros += not profile_l.any() or not profile_m.any()
        total += _cos_or_zero(profile_l, profile_m)
    return total / n, zeros


def aligned_cosine_brute(a, b, q):
    """Mean per-node cosine of (a @ q)[i] and b[i], a zero vector scoring
    0, and the count of such nodes. ``q`` is the pair's rotation."""
    mapped = np.asarray(a, dtype=np.float64) @ q
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    zeros = 0
    for i in range(b.shape[0]):
        zeros += not mapped[i].any() or not b[i].any()
        total += _cos_or_zero(mapped[i], b[i])
    return total / b.shape[0], zeros


def hausdorff_brute(a, b):
    """Symmetric Hausdorff distance by double loop over both clouds."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)

    def directed(src, dst):
        worst = 0.0
        for p in src:
            best = min(
                math.sqrt(float(np.dot(p - q, p - q))) for q in dst
            )
            worst = max(worst, best)
        return worst

    return max(directed(a, b), directed(b, a))


def hausdorff_columnwise(a, b):
    """Symmetric Hausdorff distance by double loop, each squared distance
    summed column by column with one rounding per step, as scipy's
    ``cdist(..., "euclidean")`` sums it. Written as ``total += diff * diff``
    rather than ``sum()``, which compensates its rounding from Python 3.12 on.
    """
    a = np.asarray(a, dtype=np.float64).tolist()
    b = np.asarray(b, dtype=np.float64).tolist()

    def distance(p, q):
        total = 0.0
        for x, y in zip(p, q):
            diff = x - y
            total += diff * diff
        return math.sqrt(total)

    def directed(src, dst):
        return max(min(distance(p, q) for q in dst) for p in src)

    return max(directed(a, b), directed(b, a))


def wasserstein_brute(a, b):
    """Exhaustive minimum over all node bijections, then square root."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        total = 0.0
        for i, j in enumerate(perm):
            diff = a[i] - b[j]
            total += float(np.dot(diff, diff))
        best = min(best, total)
    return math.sqrt(best)


def canonical_edges_brute(pairs):
    """Raw pairs canonicalized as plain python: self-loops dropped, each
    pair made a (min, max) tuple in a set. Returns ``(edges, self_loops,
    duplicates)`` with ``edges`` a sorted list of [i, j] lists."""
    seen = set()
    self_loops = duplicates = 0
    for a, b in pairs:
        if a == b:
            self_loops += 1
            continue
        key = (min(a, b), max(a, b))
        duplicates += key in seen
        seen.add(key)
    return [list(edge) for edge in sorted(seen)], self_loops, duplicates


class EdgeListRejected(Exception):
    """The oracle refused an edge list: ``kind`` is "parse" or "empty",
    ``line`` the 1-based number of the first bad line for "parse"."""

    def __init__(self, kind, line=None):
        super().__init__(kind, line)
        self.kind = kind
        self.line = line


def edge_list_brute(path, id_map=None):
    """Edge-list parse as plain python, one line at a time.

    Each line of the text file (universal newlines) loses everything
    from the first ``#``, is split by ``str.split()``, and its first two
    tokens go through ``int()``. Without an id map, ids must be in
    0..2**63-1 and are renumbered in ascending order. Pairs become
    (min, max) tuples in a set. Returns ``(edges, id_map, self_loops,
    duplicates)`` with ``edges`` a sorted list of [i, j] lists.
    """
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            tokens = line.split("#", 1)[0].split()
            if not tokens:
                continue
            if len(tokens) < 2:
                raise EdgeListRejected("parse", number)
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise EdgeListRejected("parse", number) from None
            if id_map is not None:
                if a not in id_map or b not in id_map:
                    raise EdgeListRejected("parse", number)
                a, b = id_map[a], id_map[b]
            elif not (0 <= a < 2**63 and 0 <= b < 2**63):
                raise EdgeListRejected("parse", number)
            pairs.append((a, b))
    if not pairs:
        raise EdgeListRejected("empty")
    if id_map is None:
        distinct = sorted({node for pair in pairs for node in pair})
        id_map = {node: row for row, node in enumerate(distinct)}
        pairs = [(id_map[a], id_map[b]) for a, b in pairs]
    seen = set()
    self_loops = duplicates = 0
    for a, b in pairs:
        if a == b:
            self_loops += 1
            continue
        key = (min(a, b), max(a, b))
        if key in seen:
            duplicates += 1
        seen.add(key)
    if not seen:
        raise EdgeListRejected("empty")
    return [list(edge) for edge in sorted(seen)], id_map, self_loops, duplicates


def id_map_brute(doc):
    """An id-map JSON object read as plain python: ``{int(key): int(row)}``,
    or "entry" when a key or row is not an integer (a bool or float row
    is not, though ``int`` takes it), "twice" when two keys spell one id,
    or "rows" when the rows are not 0..n-1."""
    try:
        if any(isinstance(row, (bool, float)) for row in doc.values()):
            return "entry"
        mapping = {int(key): int(row) for key, row in doc.items()}
    except (TypeError, ValueError):
        return "entry"
    if len(mapping) < len(doc):
        return "twice"
    if sorted(mapping.values()) != list(range(len(mapping))):
        return "rows"
    return mapping


def id_map_text_brute(node_count):
    """The identity id map of ``gramstab synth``, one f-string per entry:
    ``{``, then ``  "i": i`` for each i below ``node_count``, one per
    line, then ``}``."""
    return "{\n" + ",\n".join(f'  "{i}": {i}' for i in range(node_count)) + "\n}\n"


def edge_list_text_brute(edges, comment=None):
    """The text of an edge list written one f-string per edge row: a
    ``# line`` for each line of ``comment``, split at ``\\r\\n``,
    ``\\r`` and ``\\n``, then ``i j`` for each row of ``edges``."""
    lines = [f"# {line}\n" for line in re.split(r"\r\n|\r|\n", comment)] if comment else []
    for i, j in np.asarray(edges, dtype=np.int64):
        lines.append(f"{i} {j}\n")
    return "".join(lines)


def random_graph_brute(node_count, avg_degree, seed):
    """random_graph's edges as a sorted list of [i, j] lists, drawn from
    the same stream (the root seed, then tag 0) by rejection: each draw's
    rows with equal endpoints are masked out before the pairs become
    keys i * node_count + j, and the distinct keys collected so far are
    shuffled once and their first ``target`` kept."""
    entropy = [seed] if isinstance(seed, int) else list(seed)
    rng = np.random.default_rng([*entropy, 0])
    max_edges = node_count * (node_count - 1) // 2
    target = max(1, min(int(round(node_count * avg_degree / 2.0)), max_edges))
    keys = np.empty(0, dtype=np.int64)
    draw = max(4 * target, 1024)
    while keys.size < target:
        pairs = rng.integers(0, node_count, size=(draw, 2), dtype=np.int64)
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        keys = np.unique(np.concatenate([keys, lo * node_count + hi]))
        draw *= 2
    chosen = sorted(rng.permutation(keys)[:target].tolist())
    return [[key // node_count, key % node_count] for key in chosen]
