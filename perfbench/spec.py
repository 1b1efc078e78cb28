"""What the benchmark measures: workloads, metric names, units and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; ``python3 perfbench/run.py --write-spec`` regenerates that file
from it, and a self-test checks that the committed copy matches.

Every end-to-end metric is reported on every workload, so each one is
defined for all four (the unit of ``work_per_s`` is stated per workload
in its ``why``). Per-layer metrics name a span recorded by the traced
run (``<module>.<function>`` inside ``src/gramstab``) and list the
workloads on which that span must fire. On those workloads a span that
did not fire is reported as missing; on the others the layer does no
work, which is reported as a measured 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

RUN_SECONDS = 15

# Warm-up invocations per run, each on freshly written inputs; their
# median wall is setup_s.
SETUP_SAMPLES = 3

INGEST, STREAM, SUITE, SYNTH = "ggi-ingest", "ggi-stream", "baseline-suite", "synth-write"
GGI_WORKLOADS = (INGEST, STREAM)
READ_WORKLOADS = (INGEST, STREAM, SUITE)
ALL_WORKLOADS = (INGEST, STREAM, SUITE, SYNTH)

WORKLOADS = {
    INGEST: "gramstab ggi on a dirty 40-bit-id edge list with d=8: edge-list parsing dominates; "
    "work_per_s counts edge lines",
    STREAM: "gramstab ggi streaming 8 configs of 20k x 128 over 200k edges: gather, "
    "normalize, GGE1 read and sha256 dominate; work_per_s counts configs",
    SUITE: "the five gramstab baseline indices at |V|=1000, d=32, N=5, k=10: kNN search, "
    "pair loops and import dominate; work_per_s counts pairs",
    SYNTH: "gramstab synth of 20k nodes, degree 20, 4 configs at d=32: the only workload "
    "that runs the generators and writers; work_per_s counts MB written",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    # Workloads on which the span or count behind a per-layer metric
    # must fire; empty for end-to-end metrics.
    on: tuple[str, ...] = field(default=(), compare=False)


# Times are scaled to a reference host speed (see harness.PROBE_CODE).
# Even so, ten runs of different seeds on a shared 2-core host spread by
# 7-13% (quartiles over median), and raw walls by 15-25%, hence the wide
# bounds on times. RSS barely moves.
END_TO_END = (
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("work_per_s", "1/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
)


def _t(name, on, better="lower"):
    return Metric(name, "s", better, on=on)


PER_LAYER = (
    _t("cli.import_s", ALL_WORKLOADS),
    _t("cli.run_cli_self_s", ALL_WORKLOADS),
    _t("trace.overhead_s", ALL_WORKLOADS),
    _t("trace.startup_s", ALL_WORKLOADS),
    _t("trace.exit_s", ALL_WORKLOADS),
    Metric("trace.unaccounted_share", "ratio", "lower", on=ALL_WORKLOADS),
    _t("fileio.load_edge_list_s", READ_WORKLOADS),
    _t("fileio.load_edge_list_self_s", READ_WORKLOADS),
    Metric("fileio.edge_list_mb_per_s", "MB/s", "higher", on=READ_WORKLOADS),
    _t("fileio.load_id_map_s", (STREAM, SUITE)),
    _t("fileio.load_manifest_s", READ_WORKLOADS),
    _t("fileio.load_embedding_values_s", READ_WORKLOADS),
    Metric("fileio.gge1_read_mb_per_s", "MB/s", "higher", on=READ_WORKLOADS),
    _t("fileio.load_embeddings_s", (SUITE,)),
    _t("fileio.sha256_file_s", READ_WORKLOADS),
    Metric("fileio.sha256_mb_per_s", "MB/s", "higher", on=READ_WORKLOADS),
    _t("fileio.save_edge_list_s", (SYNTH,)),
    _t("fileio.save_embeddings_s", (SYNTH,)),
    _t("fileio.save_manifest_s", (SYNTH,)),
    _t("core.from_pairs_s", READ_WORKLOADS),
    _t("core.center_normalize_inplace_s", GGI_WORKLOADS),
    _t("core.validate_ensemble_s", (SUITE,)),
    Metric("core.self_loops_dropped", "count", "lower", on=READ_WORKLOADS),
    Metric("core.duplicates_dropped", "count", "lower", on=READ_WORKLOADS),
    Metric("core.edge_keep_ratio", "ratio", "higher", on=READ_WORKLOADS),
    Metric("core.degenerate_rows", "count", "lower", on=GGI_WORKLOADS),
    _t("ggi.score_configuration_s", GGI_WORKLOADS),
    _t("ggi.score_configuration_self_s", GGI_WORKLOADS),
    Metric("ggi.gather_bytes", "bytes", "lower", on=GGI_WORKLOADS),
    Metric("ggi.gather_flops", "count", "lower", on=GGI_WORKLOADS),
    Metric("ggi.gather_gb_per_s", "GB/s", "higher", on=GGI_WORKLOADS),
    _t("baselines.knn_neighbors_s", (SUITE,)),
    _t("baselines.knn_jaccard_index_self_s", (SUITE,)),
    _t("baselines.second_order_cosine_index_self_s", (SUITE,)),
    _t("baselines.aligned_cosine_index_self_s", (SUITE,)),
    _t("baselines.hausdorff_index_s", (SUITE,)),
    _t("baselines.wasserstein_index_s", (SUITE,)),
    Metric("baselines.pairs", "count", "higher", on=(SUITE,)),
    Metric("baselines.zero_vector_scores", "count", "lower", on=(SUITE,)),
    _t("alignment.procrustes_align_s", (SUITE,)),
    Metric("alignment.degenerate_alignments", "count", "lower", on=(SUITE,)),
    _t("transforms.random_graph_s", (SYNTH,)),
    _t("transforms.synthetic_ensemble_s", (SYNTH,)),
    _t("suite.knn_jaccard_s", (SUITE,)),
    _t("suite.second_order_cosine_s", (SUITE,)),
    _t("suite.aligned_cosine_s", (SUITE,)),
    _t("suite.hausdorff_s", (SUITE,)),
    _t("suite.wasserstein_s", (SUITE,)),
)


def benchmark_json() -> dict:
    def entry(m: Metric) -> dict:
        out = {"name": m.name, "unit": m.unit, "better": m.better}
        if m.bound is not None:
            out["bound"] = m.bound
        return out

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [entry(m) for m in END_TO_END],
        "per_layer": [entry(m) for m in PER_LAYER],
    }


def benchmark_json_text() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(benchmark_json_text())
    return path
