"""Seeded generators of orthogonal matrices, noise, random graphs and
synthetic ensembles, and the relabelling of nodes.

Everything here is deterministic per seed: randomness comes from
numpy's default_rng (PCG64), with derived streams keyed by
``[seed, tag, ...]`` so independent draws never share state. These are
the building blocks for invariance checks and synthetic instability
studies.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

import numpy as np

from .core import (
    GraphTopology,
    _allocate,
    _canonical_keys,
    _check_count,
    _check_integer,
    _check_key_nodes,
    _is_permutation,
    _node_ids,
    _require_configs,
    _split_keys,
    matrix_values,
)
from .errors import NotABijection, ShapeMismatch

GENERATOR_NAME = "numpy-default_rng-pcg64"

# Anything numpy's default_rng accepts as entropy; derived streams use
# [root_seed, tag, ...] sequences.
SeedLike = Union[int, Sequence[int]]

# Derived-stream tags for synthetic ensembles.
_TAG_GRAPH = 0
_TAG_BASE = 1
_TAG_NOISE = 2


def _stream(seed: SeedLike, *tags: int) -> np.random.Generator:
    """Derived generator keyed by the root seed plus integer tags."""
    if isinstance(seed, (int, np.integer)):
        entropy = [int(seed), *tags]
    else:
        entropy = [*(int(s) for s in seed), *tags]
    return np.random.default_rng(entropy)


def random_orthogonal(dim: int, seed: SeedLike) -> np.ndarray:
    """Random (dim, dim) orthogonal matrix, deterministic per seed.

    Built by QR-orthogonalizing a seeded Gaussian matrix with the usual
    sign fix on R's diagonal (uniform over the orthogonal group). ``dim``
    is an int or a numpy integer >= 1; a bool or a float raises
    ShapeMismatch.
    """
    _check_count(dim, "dimension")
    rng = np.random.default_rng(seed)
    gaussian = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gaussian)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def apply_permutation(
    mat, graph: GraphTopology, mapping
) -> tuple[np.ndarray, GraphTopology]:
    """Relabel nodes in both the embeddings and the edge set.

    Output row mapping[i] holds input row i, and each edge {i, j} becomes
    {mapping[i], mapping[j]}; relabeling both together is what leaves
    edge-restricted sums unchanged. A mapping that is not a bijection
    onto 0..n-1 raises NotABijection.
    """
    values = matrix_values(mat)
    mapping = _node_ids(mapping, NotABijection, "mapping entries")
    if mapping.ndim != 1 or not _is_permutation(mapping):
        raise NotABijection("mapping is not a bijection onto 0..n-1")
    if values.shape[0] != mapping.size or graph.node_count != mapping.size:
        raise ShapeMismatch(
            f"permutation covers {mapping.size} nodes but the matrix has "
            f"{values.shape[0]} rows and the graph {graph.node_count} nodes"
        )
    permuted = np.empty_like(values)
    permuted[mapping] = values
    new_graph, _, _ = GraphTopology.from_pairs(graph.node_count, mapping[graph.edges])
    return permuted, new_graph


def perturb_gaussian(mat, sigma_noise: float, seed: SeedLike) -> np.ndarray:
    """Add seeded i.i.d. Gaussian noise of the given standard deviation.

    The noise is drawn first and the input added to it in place, so the
    result is the one matrix drawn.
    """
    _check_noise(sigma_noise)
    values = matrix_values(mat)
    if sigma_noise == 0.0:
        return values.copy()
    noisy = np.random.default_rng(seed).normal(0.0, sigma_noise, size=values.shape)
    noisy += values
    return noisy


def _check_noise(sigma_noise: float) -> None:
    """Raise ValueError unless ``sigma_noise`` is finite and >= 0."""
    if not (np.isfinite(sigma_noise) and sigma_noise >= 0):
        raise ValueError(f"sigma_noise must be finite and >= 0, got {sigma_noise}")


def random_graph(node_count: int, avg_degree: float, seed: SeedLike) -> GraphTopology:
    """Seeded undirected simple graph with roughly the given mean degree.

    Samples round(node_count * avg_degree / 2) distinct unordered pairs
    by rejection, which is near-uniform for sparse graphs. At 10^5 nodes
    and 10^6 edges it takes about 0.45 s (2-core VM, numpy 2.4), mostly
    to draw, sort and shuffle some 4 million candidate keys. The
    candidates are drawn a span at a time straight into the key buffer,
    so its peak is that one int64 key per candidate plus a span's pairs
    and temporaries: about 2.35 times 16 bytes per edge it returns at
    2 * 10^4 nodes and 2 * 10^5 edges, whose int32 edges then take the
    first keys' own bytes. Refused before anything is
    drawn: a node count that is not an integer, below 2 or past
    ``core._KEY_NODES`` (about 3.04e9), and a degree that is not finite
    and > 0; a finite degree past the complete graph draws it. A key
    buffer too large to allocate raises InstanceTooLarge.
    """
    _check_integer(node_count, "node_count")
    if node_count < 2:
        raise ShapeMismatch(f"need at least 2 nodes to draw edges, got {node_count}")
    _check_key_nodes(node_count)
    if not (np.isfinite(avg_degree) and avg_degree > 0):
        raise ValueError(f"avg_degree must be finite and > 0, got {avg_degree}")
    max_edges = node_count * (node_count - 1) // 2
    # Clamped before int(): a huge finite degree makes an infinite product.
    target = max(1, int(round(min(node_count * avg_degree / 2.0, max_edges))))
    rng = _stream(seed, _TAG_GRAPH)

    def candidates(lo: int, hi: int) -> np.ndarray:
        # PCG64 keeps the spare half of a 64-bit output in its state, so
        # drawing span by span gives the values of one (draw, 2) draw.
        return rng.integers(0, node_count, size=(hi - lo, 2), dtype=np.int64)

    keys = np.empty(0, dtype=np.int64)
    draw = max(4 * target, 1024)
    while keys.size < target:
        merged = _allocate(keys.size + draw, np.int64, f"{target} edges need", "candidate keys")
        merged[:keys.size] = keys
        count, _ = _canonical_keys(node_count, draw, candidates, merged)
        keys = merged
        keys.resize(count, refcheck=False)  # in place: ``merged`` names the same array
        draw *= 2
    rng.shuffle(keys)  # what rng.permutation(keys) draws, without its copy
    keys.resize(target, refcheck=False)  # the first target keys
    keys.sort()
    return GraphTopology._canonical(node_count, _split_keys(keys, target, node_count))


def synthetic_ensemble(
    node_count: int,
    dim: int,
    n_configs: int,
    noise: float = 0.0,
    seed: int = 0,
) -> Iterator[np.ndarray]:
    """Noisy copies of one seeded (node_count, dim) base embedding.

    Every configuration is base + Gaussian noise (std ``noise``), each
    drawn from its own stream, so with noise 0 the ensemble scores a zero
    index. For a transformed ensemble, rotate or shift these copies or
    relabel them with :func:`apply_permutation`.

    The base is drawn here; the configurations come as a one-pass
    iterator that draws each when it is asked for, so a caller that lets
    each go before asking for the next holds the base and one
    configuration. Wrap it in ``list()`` to keep them all. The arguments
    are checked first: a ``node_count``, ``dim`` or ``n_configs`` that is
    not an int or a numpy integer (a bool or a float, say), or a
    ``node_count`` or ``dim`` below 1, raises ShapeMismatch; an
    ``n_configs`` below 2, which no index can score, TooFewConfigs; and a
    negative or non-finite ``noise`` the ValueError of
    :func:`perturb_gaussian`.
    """
    _check_count(node_count, "node_count")
    _check_count(dim, "dimension")
    _check_integer(n_configs, "n_configs")
    _require_configs(n_configs)
    _check_noise(noise)
    base = _stream(seed, _TAG_BASE).standard_normal((node_count, dim))
    # A generator expression holds no name for the configuration it yielded,
    # so that one is freed as soon as the caller drops it.
    return (perturb_gaussian(base, noise, [seed, _TAG_NOISE, idx]) for idx in range(n_configs))
