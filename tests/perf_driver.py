"""Scaled performance probe, run as its own process by the test suite.

Streams N=10 freshly generated configurations (|V| = 100 000, d = 128)
over a 1 000 000-edge graph through the index pipeline and reports wall
time plus the tracemalloc peak as JSON on stdout. The graph is built
before tracing starts, so the peak measures what the pipeline itself
allocates: at most one configuration plus bounded gather scratch, never
any |V| x |V| structure.
"""

import json
import sys
import time
import tracemalloc

import numpy as np

from gramstab import ggi_index, random_graph

NODE_COUNT = 100_000
DIM = 128
N_EDGES = 1_000_000
N_CONFIGS = 10


def stream_configs():
    for idx in range(N_CONFIGS):
        rng = np.random.default_rng([7, idx])
        yield rng.standard_normal((NODE_COUNT, DIM))


def main() -> int:
    graph = random_graph(NODE_COUNT, 2.0 * N_EDGES / NODE_COUNT, seed=0)
    if graph.edge_count != N_EDGES:
        print(f"graph has {graph.edge_count} edges, wanted {N_EDGES}", file=sys.stderr)
        return 1
    matrix_bytes = NODE_COUNT * DIM * 8
    edge_bytes = graph.edges.nbytes
    budget_bytes = 2 * matrix_bytes + edge_bytes

    tracemalloc.start()
    started = time.perf_counter()
    report = ggi_index(stream_configs(), graph, copy=False)
    wall_seconds = time.perf_counter() - started
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    print(json.dumps({
        "wall_seconds": wall_seconds,
        "peak_bytes": peak_bytes,
        "budget_bytes": budget_bytes,
        "matrix_bytes": matrix_bytes,
        "edge_bytes": edge_bytes,
        "graph_bytes_per_edge": edge_bytes / graph.edge_count,
        "peak_bytes_per_edge": peak_bytes / graph.edge_count,
        "node_count": NODE_COUNT,
        "dim": DIM,
        "n_edges": graph.edge_count,
        "n_configs": report.n_configs,
        "index_value": report.index_value,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
