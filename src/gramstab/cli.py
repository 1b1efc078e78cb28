"""Command line front end.

Four subcommands: ``ggi`` and ``baseline`` compute indices over an
ensemble described by a manifest, ``synth`` writes a synthetic ensemble
to disk, ``validate`` checks a manifest's files for shape and format
problems without computing anything.

Exit codes: 0 on success, 2 for anything wrong with the inputs (bad
files, bad shapes, bad arguments), 3 for an internal invariant failure.
Reports are deterministic byte for byte: they depend on the input files
and the options alone.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import sys
import threading
from pathlib import Path

from . import __version__
from .baselines import (
    METRICS,
    aligned_cosine_index,
    hausdorff_index,
    knn_jaccard_index,
    second_order_cosine_index,
    wasserstein_index,
)
from .core import _allocate, _start, center_normalize_inplace, validate_ensemble
from .errors import GramstabError, InternalInvariant, ShapeMismatch, TooFewConfigs
from .fileio import (
    EdgeListResult,
    Manifest,
    _save_identity_id_map,
    load_edge_list,
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
from .transforms import GENERATOR_NAME, random_graph, synthetic_ensemble


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
    ids = None if manifest.node_id_map is None else load_id_map(manifest.node_id_map)
    return load_edge_list(manifest.graph_path, ids=ids)


@contextlib.contextmanager
def _input_hashes(manifest: Manifest):
    """Yield a function that returns the report's SHA-256 of a manifest's
    graph and embedding files, which a :func:`~gramstab.core._start`
    thread reads while the caller loads and scores them: hashlib releases
    the GIL. Leaving the ``with`` block stops the thread at its next read
    and joins it. A hashing error is raised only by the yielded function,
    so the loaders' own errors are the ones reported.
    """
    digests: list[str] = []
    stop = threading.Event()

    def hash_files() -> None:
        for path in (manifest.graph_path, *manifest.embedding_paths):
            # The module global, looked up per call like _baselines(), so
            # that a wrapper set on it after import runs.
            if (digest := sha256_file(path, stop=stop)) is None:
                return
            digests.append(digest)

    join = _start(hash_files, name="gramstab-sha256")

    def hashes() -> dict:
        if (error := join()) is not None:
            raise error
        return {"graph_sha256": digests[0], "embeddings_sha256": digests[1:]}

    try:
        yield hashes
    finally:
        stop.set()
        join()


def _emit(command: str, body: dict, args, hashes=None) -> None:
    """Write a report: the shared head, ``body``, then, given the function
    :func:`_input_hashes` yields, the manifest and the inputs' hashes."""
    document = {"tool": "gramstab", "version": __version__, "command": command, **body}
    if hashes is not None:
        document["inputs"] = {"manifest": str(args.manifest), **hashes()}
    text = report_to_json(document)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_ggi(args) -> int:
    manifest = load_manifest(args.manifest)
    with _input_hashes(manifest) as hashes:
        graph = _load_graph(manifest).graph
        # Loaded arrays are owned by this process, so the scoring pipeline
        # may preprocess them in place (copy=False); one is alive at a time.
        report = ggi_index(
            map(load_embeddings, manifest.embedding_paths),
            graph,
            copy=False,
        )
        _emit("ggi", {
            "index_name": "ggi",
            "index_value": report.index_value,
            "index_percent": report.index_percent,
            "n_configs": report.n_configs,
            "node_count": graph.node_count,
            "edge_count": graph.edge_count,
            "per_config": [
                {"label": label, "score": score, "degenerate_rows": degenerate}
                for label, score, degenerate in zip(
                    manifest.labels, report.scores.tolist(), report.degenerate_rows
                )
            ],
        }, args, hashes)
    return 0


def _cmd_baseline(args) -> int:
    manifest = load_manifest(args.manifest)
    with _input_hashes(manifest) as hashes:
        graph = _load_graph(manifest).graph
        configs = [load_embeddings(path) for path in manifest.embedding_paths]
        # Each configuration against the graph, as ggi and validate check
        # them: a short config 0 is named, not the next one that differs from it.
        validate_ensemble(configs, graph)
        if args.preprocess:
            # Loaded arrays are owned by this process, so they are centered
            # in place, as ggi does: one matrix per configuration.
            for idx, values in enumerate(configs):
                center_normalize_inplace(values, idx)
        knn = ({"k": args.k, "metric": args.metric}
               if args.index in ("knn-jaccard", "second-order-cosine") else {})
        report = _baselines()[args.index](configs, **knn)
        _emit("baseline", {
            "index_name": args.index,
            "aggregate": report.aggregate,
            "n_configs": len(configs),
            "per_pair": [
                {
                    "pair": [l, m],
                    "labels": [manifest.labels[l], manifest.labels[m]],
                    "score": report.per_pair[(l, m)],
                }
                for l, m in sorted(report.per_pair)
            ],
            "options": {"preprocess": args.preprocess, **knn},
            "metadata": report.metadata,
        }, args, hashes)
    return 0


def _cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    parsed = _load_graph(manifest)
    graph = parsed.graph
    dims = validate_ensemble(map(load_embeddings, manifest.embedding_paths), graph)
    _emit("validate", {
        "n_configs": len(dims),
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "dims": list(dims),
        "labels": list(manifest.labels),
        "self_loops_dropped": parsed.self_loops_dropped,
        "duplicates_dropped": parsed.duplicates_dropped,
    }, args)
    return 0


def _cmd_synth(args) -> int:
    # Refused before anything is written: each would make synth fail midway
    # or write an ensemble that the other commands reject.
    if args.nodes < 2:
        raise ShapeMismatch(f"--nodes must be at least 2, got {args.nodes}")
    if args.configs < 2:
        raise TooFewConfigs(f"--configs must be at least 2, got {args.configs}")
    if args.dim < 1:
        raise ShapeMismatch(f"--dim must be at least 1, got {args.dim}")
    if not (math.isfinite(args.avg_degree) and args.avg_degree > 0):
        raise GramstabError(f"--avg-degree must be finite and > 0, got {args.avg_degree}")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise GramstabError(f"--noise must be finite and >= 0, got {args.noise}")
    if args.seed < 0:
        raise GramstabError(f"--seed must be >= 0, got {args.seed}")
    # Drawn first, so that its refusals (a node count past core._KEY_NODES,
    # a candidate-key buffer too large) come before the base's.
    graph = random_graph(args.nodes, args.avg_degree, args.seed)
    # The base's size, never touched: no page is written.
    _allocate((args.nodes, args.dim), float, f"a {args.nodes} x {args.dim} base embedding needs",
              "values")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    _save_identity_id_map(ids_path, args.nodes)
    # The edges go before the base is drawn: each draw comes from its own stream.
    del graph
    configs = synthetic_ensemble(args.nodes, args.dim, args.configs,
                                 noise=args.noise, seed=args.seed)
    width = max(2, len(str(args.configs - 1)))
    embedding_paths = [out_dir / f"config_{idx:0{width}d}.gge1" for idx in range(args.configs)]
    for path in embedding_paths:
        # No name holds the written configuration while the next one is drawn.
        save_embeddings(path, next(configs), fmt="gge1")
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
    ggi.set_defaults(func=_cmd_ggi)

    baseline = sub.add_parser("baseline", help="comparison indices of an ensemble")
    baseline.add_argument("--manifest", required=True, help="ensemble manifest JSON")
    baseline.add_argument("--index", required=True, choices=_baselines())
    baseline.add_argument(
        "--k", type=int, default=10, help="neighborhood size for kNN indices"
    )
    baseline.add_argument(
        "--metric",
        choices=METRICS,
        default="cosine",
        help="similarity metric for kNN indices",
    )
    baseline.add_argument(
        "--preprocess",
        action="store_true",
        help="center and normalize configurations first (off by default)",
    )
    baseline.add_argument("--out", default=None, help="write the report here instead of stdout")
    baseline.set_defaults(func=_cmd_baseline)

    synth = sub.add_parser("synth", help="write a synthetic ensemble to disk")
    synth.add_argument("--nodes", type=int, required=True,
                       help="node count of the random graph (at least 2)")
    synth.add_argument("--avg-degree", type=float, default=8.0,
                       help="mean node degree of the random graph (default: 8.0)")
    synth.add_argument("--dim", type=int, required=True,
                       help="embedding dimension, in columns (at least 1)")
    synth.add_argument("--configs", type=int, required=True,
                       help="number of configurations to write (at least 2)")
    synth.add_argument("--noise", type=float, default=0.0,
                       help="std of the Gaussian noise added to each configuration, whose "
                            "base has std 1 (default: 0.0)")
    synth.add_argument("--seed", type=int, default=0,
                       help="seed of every random draw, at least 0 (default: 0)")
    synth.add_argument("--out-dir", required=True,
                       help="directory to write the graph, id map, configurations and "
                            "manifest into; created if missing")
    synth.set_defaults(func=_cmd_synth)

    validate = sub.add_parser("validate", help="check a manifest's files")
    validate.add_argument("--manifest", required=True, help="ensemble manifest JSON")
    validate.add_argument("--out", default=None, help="write the report here instead of stdout")
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
    except (GramstabError, OSError) as exc:
        # Missing or unreadable files are input problems, not bugs.
        print(f"gramstab: error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariant as exc:
        print(f"gramstab: internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001  anything unexpected is internal
        print(f"gramstab: internal error: {exc!r}", file=sys.stderr)
        return 3


def main() -> None:
    # Move the import-time heap out of every collection, the interpreter's
    # last one at exit included: that sweep costs about 30 ms a process. Not
    # in run_cli, which tests call in a process whose heap must stay
    # collectable.
    gc.freeze()
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
