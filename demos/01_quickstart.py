"""Quickstart: how unstable are my node embeddings, really?

Trains nothing. We fake an "ensemble of training runs" by jittering one
base embedding at different noise levels, over a graph whose edges
genuinely mean geometric closeness, and watch the index react.
Run with: python3 demos/01_quickstart.py
"""

import numpy as np

from gramstab import (
    GraphTopology,
    ggi_index,
    knn_neighbors,
    perturb_gaussian,
)

# A latent space of 500 nodes; each node is wired to its 4 nearest
# neighbors, so adjacent nodes are close by construction and the mean
# edge cosine is comfortably positive.
rng = np.random.default_rng(42)
base = rng.normal(size=(500, 32))
nearest = knn_neighbors(base, 4)
pairs = np.column_stack([np.repeat(np.arange(500), 4), nearest.ravel()])
graph, _, _ = GraphTopology.from_pairs(500, pairs)
print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")

# Ten "configurations": the same model retrained with different seeds,
# here simulated as the base embedding plus per-run Gaussian noise. An
# ensemble is just a list of float64 arrays, one row per node.
for noise in (0.0, 0.05, 0.2, 0.8):
    configs = [perturb_gaussian(base, noise, seed=[7, run]) for run in range(10)]
    report = ggi_index(configs, graph)
    print(f"noise {noise:4.2f}  ->  index {report.index_value:.6f}"
          f"  ({report.index_percent:.4f} per hundred)")

# Zero noise means ten bit-identical runs; the index is exactly 0.0,
# not merely small. More noise, more geometric drift, larger index.

# The per-configuration scores behind the index are available too: each
# is the mean cosine between embeddings of adjacent nodes after
# centering. Here edges were built from proximity, so scores sit well
# above 0; on a graph unrelated to the geometry they would hover near 0.
configs = [perturb_gaussian(base, 0.2, seed=[7, run]) for run in range(10)]
report = ggi_index(configs, graph)
print("\nper-config edge scores:",
      np.array2string(report.scores, precision=4))

# The index is the population std of those scores (divide by N); for the
# N - 1 convention multiply it by sqrt(N / (N - 1)).
n = report.n_configs
print(f"index {report.index_value:.6f} is the population std of the scores;"
      f" times sqrt(N / (N - 1)) it is {report.index_value * np.sqrt(n / (n - 1)):.6f}")
