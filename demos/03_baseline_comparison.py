"""Six indices, one sweep: what each one sees as instability grows.

The comparison indices answer subtly different questions. Aligned
cosine asks "same space up to rotation?"; kNN Jaccard and second-order
cosine ask "same local neighborhoods?"; Hausdorff and Wasserstein ask
"same point cloud?". The edge-Gram index asks "same edge-level
geometry?" and is the only one that needs the graph. This script runs
all of them across a noise sweep so their scales and directions can be
compared side by side. Note the directions differ: the distance-like
columns grow with noise while the similarity-like columns shrink.
Run with: python3 demos/03_baseline_comparison.py
"""

from gramstab import (
    aligned_cosine_index,
    ggi_index,
    hausdorff_index,
    knn_jaccard_index,
    random_graph,
    second_order_cosine_index,
    synthetic_ensemble,
    wasserstein_index,
)
from gramstab.baselines import PAIR_CONVENTION

# Small ensemble: Wasserstein solves a |V| x |V| assignment for each pair
# whose nearest-neighbour certificate fails, so keep |V| modest for a demo
# that finishes in seconds.
graph = random_graph(150, 6.0, seed=5)
K = 10  # neighborhood size of the kNN indices

header = (f"{'noise':>6} {'edge-gram':>10} {'aligned-cos':>12} "
          f"{'knn-jaccard':>12} {'2nd-order':>10} {'hausdorff':>10} "
          f"{'wasserstein':>12}")
print(header)
print("-" * len(header))

for noise in (0.02, 0.1, 0.3, 1.0):
    # A list, as every index below reads them again.
    configs = list(synthetic_ensemble(graph.node_count, dim=16, n_configs=5,
                                      noise=noise, seed=6))
    row = [
        ggi_index(configs, graph).index_value,
        aligned_cosine_index(configs).aggregate,
        knn_jaccard_index(configs, K).aggregate,
        second_order_cosine_index(configs, K).aggregate,
        hausdorff_index(configs).aggregate,
        wasserstein_index(configs).aggregate,
    ]
    print(f"{noise:6.2f} {row[0]:10.5f} {row[1]:12.5f} {row[2]:12.5f} "
          f"{row[3]:10.5f} {row[4]:10.4f} {row[5]:12.4f}")

# Each pairwise index also exposes its per-pair scores, useful for
# spotting the one run that disagrees with the rest of the ensemble.
configs = synthetic_ensemble(graph.node_count, dim=16, n_configs=4, noise=0.3,
                             seed=8)
report = knn_jaccard_index(configs, K)
print(f"\nper-pair kNN Jaccard ({PAIR_CONVENTION}):")
for (l, m), score in sorted(report.per_pair.items()):
    print(f"  configs ({l}, {m}): {score:.4f}")
