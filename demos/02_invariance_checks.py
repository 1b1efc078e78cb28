"""The index ignores exactly the transformations it promises to ignore.

An embedding consumer that works with inner products cannot tell apart
spaces differing by rotation, translation, or a consistent relabeling
of nodes. A stability index that flags those as "instability" would be
measuring noise of its own making. This script applies each transform
and prints the index drift, which should sit at floating-point dust.
Run with: python3 demos/02_invariance_checks.py
"""

import numpy as np

from gramstab import (
    GraphTopology,
    apply_permutation,
    ggi_index,
    knn_neighbors,
    perturb_gaussian,
    random_orthogonal,
)

# Same setup as the quickstart: edges join latent-space neighbors, so
# per-configuration edge scores are meaningfully positive.
rng = np.random.default_rng(1)
base = rng.normal(size=(300, 16))
nearest = knn_neighbors(base, 5)
pairs = np.column_stack([np.repeat(np.arange(300), 5), nearest.ravel()])
graph, _, _ = GraphTopology.from_pairs(300, pairs)
configs = [perturb_gaussian(base, 0.1, seed=[2, run]) for run in range(6)]
reference = ggi_index(configs, graph).index_value
print(f"reference index: {reference:.10f}\n")

# 1. Rotate every configuration by its own random orthogonal matrix.
#    Inner products of centered rows are unchanged, so each
#    per-configuration score is unchanged, so the index is too.
dim = base.shape[1]
rotated = [
    c @ random_orthogonal(dim, seed=[10, i])
    for i, c in enumerate(configs)
]
value = ggi_index(rotated, graph).index_value
print(f"per-config rotations:    drift {abs(value - reference):.2e}")

# 2. Shift every configuration by its own random translation. The
#    preprocessing centers columns first, so translations vanish there.
shifted = [
    c + np.random.default_rng([11, i]).normal(0.0, 5.0, size=dim)
    for i, c in enumerate(configs)
]
value = ggi_index(shifted, graph).index_value
print(f"per-config translations: drift {abs(value - reference):.2e}")

# 3. Relabel the nodes, consistently, in every configuration AND in the
#    edge list. The sum runs over the same set of node pairs either
#    way; only the order of terms changes.
sigma = np.random.default_rng(12).permutation(graph.node_count)
permuted, relabeled_graph = [], graph
for c in configs:
    pm, relabeled_graph = apply_permutation(c, graph, sigma)
    permuted.append(pm)
value = ggi_index(permuted, relabeled_graph).index_value
print(f"shared node relabeling:  drift {abs(value - reference):.2e}")

# 4. Shuffle the order of configurations. A standard deviation does not
#    care which run came first.
order = np.random.default_rng(13).permutation(len(configs))
shuffled = [configs[i] for i in order]
value = ggi_index(shuffled, graph).index_value
print(f"config order shuffle:    drift {abs(value - reference):.2e}")

# What the index does NOT ignore: an actual change of geometry. One
# run drowned in noise is visible immediately.
louder = list(configs)
louder[0] = configs[0] + np.random.default_rng(14).normal(
    0.0, 2.0, size=configs[0].shape
)
value = ggi_index(louder, graph).index_value
print(f"\none config drowned in noise: index {reference:.6f} -> {value:.6f}")
