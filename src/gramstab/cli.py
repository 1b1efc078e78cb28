"""Command line front end.

Four subcommands: ``ggi`` and ``baseline`` compute indices over an
ensemble described by a manifest, ``synth`` writes a synthetic ensemble
to disk, ``validate`` checks a manifest's files for shape and format
problems without computing anything.

Exit codes: 0 on success, 2 for anything wrong with the inputs (bad
files, bad shapes, bad arguments), 3 for an internal invariant failure.
Reports are deterministic byte for byte: timing information is only
included when explicitly requested with ``--timings``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__
from .baselines import (
    aligned_cosine_index,
    hausdorff_index,
    knn_jaccard_index,
    second_order_cosine_index,
    wasserstein_index,
)
from .core import validate_ensemble
from .errors import GramstabError, InternalInvariant
from .fileio import (
    EdgeListResult,
    Manifest,
    load_edge_list,
    load_embedding_values,
    load_embeddings,
    load_id_map,
    load_manifest,
    report_to_json,
    save_edge_list,
    save_embeddings,
    save_manifest,
    sha256_file,
)
from .ggi import ggi_index
from .transforms import (
    GENERATOR_NAME,
    TRANSFORM_KINDS,
    random_graph,
    synthetic_ensemble,
)


def _baselines() -> dict:
    """Each ``baseline --index`` name and its function. Built per call, not
    at import, so that a wrapper set on this module's attributes after
    import (the benchmark's tracer) is what runs."""
    return {
        "aligned-cosine": aligned_cosine_index,
        "knn-jaccard": knn_jaccard_index,
        "second-order-cosine": second_order_cosine_index,
        "hausdorff": hausdorff_index,
        "wasserstein": wasserstein_index,
    }


def _load_graph(manifest: Manifest) -> EdgeListResult:
    id_map = load_id_map(manifest.node_id_map) if manifest.node_id_map else None
    return load_edge_list(manifest.graph_path, id_map=id_map)


def _emit(command: str, body: dict, args, manifest: Manifest | None = None,
          started: float = 0.0) -> None:
    """Write a report: the shared head, ``body``, then, given the manifest of
    the inputs scored, their hashes and, if requested, the timings."""
    document = {"tool": "gramstab", "version": __version__, "command": command, **body}
    if manifest is not None:
        document["inputs"] = {
            "manifest": str(args.manifest),
            "graph_sha256": sha256_file(manifest.graph_path),
            "embeddings_sha256": [sha256_file(p) for p in manifest.embedding_paths],
        }
        if args.timings:
            document["timings"] = {"wall_seconds": time.perf_counter() - started}
    text = report_to_json(document)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_ggi(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    graph = _load_graph(manifest).graph
    options = {"preprocess": not args.no_preprocess, "std": args.std}
    # Loaded arrays are owned by this process, so the scoring pipeline
    # may preprocess them in place (copy=False); one is alive at a time.
    report = ggi_index(
        (load_embedding_values(path) for path in manifest.embedding_paths),
        graph,
        **options,
        copy=False,
    )
    _emit("ggi", {
        "index_name": report.index_name,
        "index_value": report.index_value,
        "index_percent": report.index_percent,
        "n_configs": report.n_configs,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "per_config": [
            {
                "label": manifest.labels[s.config_index],
                "score": s.score,
                "degenerate_rows": s.degenerate_rows,
            }
            for s in report.per_config
        ],
        "options": options,
    }, args, manifest, started)
    return 0


def _cmd_baseline(args) -> int:
    started = time.perf_counter()
    manifest = load_manifest(args.manifest)
    graph = _load_graph(manifest).graph
    configs = [load_embeddings(path) for path in manifest.embedding_paths]
    # Each configuration against the graph, as ggi and validate check
    # them: a short config 0 is named, not the next one that differs from it.
    validate_ensemble(configs, graph)
    options: dict = {"preprocess": args.preprocess}
    if args.index in ("knn-jaccard", "second-order-cosine"):
        options.update(k=args.k, metric=args.metric)
    report = _baselines()[args.index](configs, **options)
    _emit("baseline", {
        "index_name": report.index_name,
        "aggregate": report.aggregate,
        "n_configs": report.n_configs,
        "pair_convention": report.pair_convention,
        "per_pair": [
            {
                "pair": [l, m],
                "labels": [manifest.labels[l], manifest.labels[m]],
                "score": report.per_pair[(l, m)],
            }
            for l, m in sorted(report.per_pair)
        ],
        "options": options,
        "metadata": {k: report.metadata[k] for k in sorted(report.metadata)},
    }, args, manifest, started)
    return 0


def _cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    parsed = _load_graph(manifest)
    # The id map is not reported: let it go before the configurations stream.
    graph = parsed.graph
    tallies = {"self_loops_dropped": parsed.self_loops_dropped,
               "duplicates_dropped": parsed.duplicates_dropped}
    del parsed
    dims = validate_ensemble(map(load_embeddings, manifest.embedding_paths), graph)
    _emit("validate", {
        "ok": True,
        "n_configs": len(dims),
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "dims": list(dims),
        "labels": list(manifest.labels),
        **tallies,
    }, args)
    return 0


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = random_graph(args.nodes, args.avg_degree, args.seed)
    configs, graph = synthetic_ensemble(
        graph,
        args.dim,
        args.configs,
        noise=args.noise,
        transform=args.transform,
        seed=args.seed,
    )
    graph_path = out_dir / "graph.edges"
    save_edge_list(
        graph_path,
        graph,
        comment=(
            f"synthetic graph nodes={args.nodes} avg_degree={args.avg_degree} "
            f"seed={args.seed}"
        ),
    )
    # Identity id map so isolated nodes still pin the node count on load.
    ids_path = out_dir / "ids.json"
    ids_path.write_text(
        "{\n"
        + ",\n".join(f'  "{i}": {i}' for i in range(graph.node_count))
        + "\n}\n"
    )
    width = max(2, len(str(args.configs - 1)))
    embedding_paths = []
    for idx, cfg in enumerate(configs):
        path = out_dir / f"config_{idx:0{width}d}.gge1"
        save_embeddings(path, cfg, fmt="gge1")
        embedding_paths.append(path)
    manifest_path = out_dir / "manifest.json"
    save_manifest(
        manifest_path,
        graph_path,
        embedding_paths,
        labels=[p.stem for p in embedding_paths],
        node_id_map=ids_path,
        extra={
            "generator": {
                "name": GENERATOR_NAME,
                "nodes": args.nodes,
                "avg_degree": args.avg_degree,
                "dim": args.dim,
                "configs": args.configs,
                "noise": args.noise,
                "transform": args.transform,
                "seed": args.seed,
            }
        },
    )
    print(manifest_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gramstab",
        description="Geometric stability indices for node-embedding ensembles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ggi = sub.add_parser("ggi", help="graph Gram index of an ensemble")
    ggi.add_argument("--manifest", required=True, help="ensemble manifest JSON")
    ggi.add_argument("--out", default=None, help="write the report here instead of stdout")
    ggi.add_argument(
        "--no-preprocess",
        action="store_true",
        help="skip column centering and row normalization",
    )
    ggi.add_argument(
        "--std",
        choices=("population", "sample"),
        default="population",
        help="dispersion convention (default: population)",
    )
    ggi.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock timings (makes the report nondeterministic)",
    )
    ggi.set_defaults(func=_cmd_ggi)

    baseline = sub.add_parser("baseline", help="comparison indices of an ensemble")
    baseline.add_argument("--manifest", required=True, help="ensemble manifest JSON")
    baseline.add_argument("--index", required=True, choices=_baselines())
    baseline.add_argument(
        "--k", type=int, default=10, help="neighborhood size for kNN indices"
    )
    baseline.add_argument(
        "--metric",
        choices=("cosine", "euclidean"),
        default="cosine",
        help="similarity metric for kNN indices",
    )
    baseline.add_argument(
        "--preprocess",
        action="store_true",
        help="center and normalize configurations first (off by default)",
    )
    baseline.add_argument("--out", default=None)
    baseline.add_argument("--timings", action="store_true")
    baseline.set_defaults(func=_cmd_baseline)

    synth = sub.add_parser("synth", help="write a synthetic ensemble to disk")
    synth.add_argument("--nodes", type=int, required=True)
    synth.add_argument("--avg-degree", type=float, default=8.0)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--configs", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.0)
    synth.add_argument("--transform", choices=TRANSFORM_KINDS, default="none")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-dir", required=True)
    synth.set_defaults(func=_cmd_synth)

    validate = sub.add_parser("validate", help="check a manifest's files")
    validate.add_argument("--manifest", required=True)
    validate.add_argument("--out", default=None)
    validate.set_defaults(func=_cmd_validate)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GramstabError as exc:
        print(f"gramstab: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        # Missing or unreadable files are input problems, not bugs.
        print(f"gramstab: error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariant as exc:
        print(f"gramstab: internal error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001  anything unexpected is internal
        print(f"gramstab: internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
