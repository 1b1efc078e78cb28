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
import gc
import math
import sys
import threading
from pathlib import Path

from . import __version__
from .baselines import (
    METRICS,
    PAIR_CONVENTION,
    aligned_cosine_index,
    hausdorff_index,
    knn_jaccard_index,
    second_order_cosine_index,
    wasserstein_index,
)
from .core import center_normalize_inplace, validate_ensemble
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
    ids = None if manifest.node_id_map is None else load_id_map(manifest.node_id_map)
    return load_edge_list(manifest.graph_path, ids=ids)


class _InputHashes:
    """The SHA-256 of a manifest's graph and embedding files, computed on a
    second thread while the caller loads and scores them. hashlib releases
    the GIL, so the hashing runs on another core.

    Leaving the ``with`` block stops the thread at its next read and joins
    it, so an error exit leaves no thread behind and does not wait for the
    files not yet hashed. A hashing error is raised only by
    :meth:`digests`, so the loaders' own errors are the ones reported.
    """

    def __init__(self, manifest: Manifest):
        self._paths = (manifest.graph_path, *manifest.embedding_paths)
        self._digests: list[str] = []
        self._error: Exception | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._hash, name="gramstab-sha256")

    def __enter__(self) -> "_InputHashes":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _hash(self) -> None:
        try:
            for path in self._paths:
                # The module global, looked up per call like _baselines(),
                # so that a wrapper set on it after import runs.
                digest = sha256_file(path, stop=self._stop)
                if digest is None:
                    return
                self._digests.append(digest)
        except Exception as exc:  # noqa: BLE001  digests() raises it on the caller's thread
            self._error = exc

    def digests(self) -> dict:
        """The report's hashes of the graph and of each embedding file."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return {"graph_sha256": self._digests[0], "embeddings_sha256": self._digests[1:]}


def _emit(command: str, body: dict, args, hashes: _InputHashes | None = None) -> None:
    """Write a report: the shared head, ``body``, then, given the hashes of
    the inputs scored, the manifest and those hashes."""
    document = {"tool": "gramstab", "version": __version__, "command": command, **body}
    if hashes is not None:
        document["inputs"] = {"manifest": str(args.manifest), **hashes.digests()}
    text = report_to_json(document)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_ggi(args) -> int:
    manifest = load_manifest(args.manifest)
    with _InputHashes(manifest) as hashes:
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
            # GGI always preprocesses and is the population std of the
            # scores; the keys stay so that reports keep their bytes.
            "options": {"preprocess": True, "std": "population"},
        }, args, hashes)
    return 0


def _cmd_baseline(args) -> int:
    manifest = load_manifest(args.manifest)
    with _InputHashes(manifest) as hashes:
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
        options = {"preprocess": args.preprocess, **knn}
        _emit("baseline", {
            "index_name": args.index,
            "aggregate": report.aggregate,
            "n_configs": len(configs),
            "pair_convention": PAIR_CONVENTION,
            "per_pair": [
                {
                    "pair": [l, m],
                    "labels": [manifest.labels[l], manifest.labels[m]],
                    "score": report.per_pair[(l, m)],
                }
                for l, m in sorted(report.per_pair)
            ],
            "options": options,
            "metadata": dict(sorted({**options, **report.metadata}.items())),
        }, args, hashes)
    return 0


def _cmd_validate(args) -> int:
    manifest = load_manifest(args.manifest)
    parsed = _load_graph(manifest)
    graph = parsed.graph
    dims = validate_ensemble(map(load_embeddings, manifest.embedding_paths), graph)
    _emit("validate", {
        "ok": True,
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
    _save_identity_id_map(ids_path, graph.node_count)
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
    synth.add_argument("--transform", choices=TRANSFORM_KINDS, default="none",
                       help="transform applied to each configuration (default: none)")
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
