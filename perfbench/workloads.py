"""The four workloads: seeded inputs, the commands run on them, and the
checks applied to every command's output.

Inputs are written by this module's own code (edge-list text, GGE1
bytes as the README specifies them, id maps and manifests), never by
``gramstab.transforms`` or ``gramstab.fileio``, so a change to the
program's generators or writers cannot change another workload's
inputs. Expected results come from ``reference``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np

import reference as ref
from spec import INGEST, STREAM, SUITE, SYNTH

NOISE = 0.1
BASELINE_INDICES = (
    "knn-jaccard",
    "second-order-cosine",
    "aligned-cosine",
    "hausdorff",
    "wasserstein",
)
NEIGHBOR_INDICES = ("knn-jaccard", "second-order-cosine")

# "full" is what the benchmark measures; "toy" runs every code path in
# seconds for the self-tests.
SCALES = {
    "full": {
        INGEST: {"nodes": 40_000, "lines": 400_000, "dim": 8, "configs": 2},
        STREAM: {"nodes": 20_000, "edges": 200_000, "dim": 128, "configs": 8},
        SUITE: {"nodes": 1000, "edges": 4000, "dim": 32, "configs": 5, "k": 10},
        SYNTH: {"nodes": 20_000, "avg_degree": 20, "dim": 32, "configs": 4},
    },
    "toy": {
        INGEST: {"nodes": 300, "lines": 2000, "dim": 8, "configs": 2},
        STREAM: {"nodes": 300, "edges": 1500, "dim": 16, "configs": 3},
        SUITE: {"nodes": 60, "edges": 200, "dim": 8, "configs": 3, "k": 5},
        SYNTH: {"nodes": 300, "avg_degree": 6, "dim": 8, "configs": 3},
    },
}

GGE1_HEADER = struct.Struct("<4sQQ")


def gge1_bytes(values: np.ndarray) -> bytes:
    values = np.ascontiguousarray(values, dtype="<f8")
    return GGE1_HEADER.pack(b"GGE1", *values.shape) + values.tobytes()


def read_gge1(path: Path) -> np.ndarray:
    """Read a GGE1 file, raising ValueError on a bad header or size."""
    data = path.read_bytes()
    if len(data) < GGE1_HEADER.size:
        raise ValueError(f"{path.name}: {len(data)} bytes is shorter than a GGE1 header")
    magic, rows, cols = GGE1_HEADER.unpack_from(data)
    if magic != b"GGE1":
        raise ValueError(f"{path.name}: magic {magic!r}")
    if len(data) != GGE1_HEADER.size + 8 * rows * cols:
        raise ValueError(f"{path.name}: {len(data)} bytes for a {rows} x {cols} matrix")
    return np.frombuffer(data, dtype="<f8", offset=GGE1_HEADER.size).reshape(rows, cols)


def identity_id_map(n: int) -> str:
    return "{\n" + ",\n".join(f'  "{i}": {i}' for i in range(n)) + "\n}\n"


def random_unique_edges(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` distinct pairs i < j, sorted, touching every node."""
    nodes = np.arange(n)
    partner = (nodes + rng.integers(1, n, size=n)) % n
    keys = ref.sorted_unique(np.minimum(nodes, partner) * n + np.maximum(nodes, partner))
    if keys.size > count:
        raise ValueError(f"{count} edges cannot touch all {n} nodes")
    while keys.size < count:
        draws = rng.integers(0, n, size=(2 * (count - keys.size) + 64, 2))
        draws = draws[draws[:, 0] != draws[:, 1]]
        extra = ref.sorted_unique(draws.min(axis=1) * n + draws.max(axis=1))
        extra = extra[~np.isin(extra, keys, assume_unique=True)]
        take = min(extra.size, count - keys.size)
        keys = ref.sorted_unique(np.concatenate([keys, rng.choice(extra, take, replace=False)]))
    return np.column_stack([keys // n, keys % n])


def noisy_configs(rng: np.random.Generator, n: int, dim: int, count: int):
    """Noisy copies of one Gaussian base embedding, one at a time."""
    base = rng.standard_normal((n, dim))
    for _ in range(count):
        yield base + NOISE * rng.standard_normal((n, dim))


def write_manifest(dest: Path, graph: str, embeddings: list[str], id_map: str | None) -> None:
    doc = {
        "graph_path": graph,
        "embedding_paths": embeddings,
        "labels": [Path(p).stem for p in embeddings],
    }
    if id_map:
        doc["node_id_map"] = id_map
    (dest / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def _load_report(stdout: bytes, command: str) -> dict:
    doc = json.loads(stdout)
    if doc.get("command") != command:
        raise ValueError(f"report command {doc.get('command')!r}, expected {command!r}")
    return doc


def _expect(what: str, got, want) -> None:
    if got != want:
        raise ValueError(f"{what}: got {got!r}, expected {want!r}")


def _expect_close(what: str, got, want) -> None:
    if not isinstance(got, (int, float)) or not ref.close(got, want):
        raise ValueError(f"{what}: got {got!r}, expected {want!r} within {ref.TOLERANCE}")


class Workload:
    """One workload: inputs written once per run, commands, checks.

    ``prepare`` writes the inputs into a directory and records what the
    reports must contain. ``files`` lists those inputs so that fresh
    copies can be made for each set-up sample. ``check`` returns None
    for a correct report, or the reason it is wrong.
    """

    name = ""
    work_unit = ""

    def __init__(self, size: dict):
        self.size = size
        self.files: list[str] = []
        self.work_per_pass = 0.0
        # Cleanup tallies load_edge_list must report, checked in the traced run.
        self.tallies: tuple[int, int] | None = None
        self.working_set: dict = {}

    def prepare(self, seed: int, dest: Path) -> None:
        raise NotImplementedError

    def commands(self, dest: Path) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def check(self, label: str, stdout: bytes, dest: Path) -> str | None:
        try:
            self._check(label, stdout, dest)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    def _check(self, label: str, stdout: bytes, dest: Path) -> None:
        raise NotImplementedError

    def after(self, dest: Path) -> None:
        """Untimed cleanup after each invocation."""


class _GgiWorkload(Workload):
    def _write_configs(self, rng, dest: Path, n: int, edges: np.ndarray) -> list[str]:
        dim, count = self.size["dim"], self.size["configs"]
        names, self.scores, self.degenerate = [], [], []
        for idx, values in enumerate(noisy_configs(rng, n, dim, count)):
            name = f"config_{idx:02d}.gge1"
            (dest / name).write_bytes(gge1_bytes(values))
            score, degenerate = ref.ggi_score(values, edges)
            names.append(name)
            self.scores.append(score)
            self.degenerate.append(degenerate)
        self.node_count, self.edge_count = n, len(edges)
        self.index = ref.population_std(self.scores)
        self.working_set = {
            "matrix_mb": n * dim * 8 / 1e6,
            "edges_mb": len(edges) * 16 / 1e6,
            "configs": count,
        }
        return names

    def commands(self, dest: Path):
        return [("ggi", ["ggi", "--manifest", str(dest / "manifest.json")])]

    def _check(self, label, stdout, dest):
        doc = _load_report(stdout, "ggi")
        _expect("node_count", doc["node_count"], self.node_count)
        _expect("edge_count", doc["edge_count"], self.edge_count)
        _expect("n_configs", doc["n_configs"], len(self.scores))
        _expect("per_config length", len(doc["per_config"]), len(self.scores))
        for idx, entry in enumerate(doc["per_config"]):
            _expect(f"label {idx}", entry["label"], f"config_{idx:02d}")
            _expect_close(f"score {idx}", entry["score"], self.scores[idx])
            _expect(f"degenerate_rows {idx}", entry["degenerate_rows"], self.degenerate[idx])
        _expect_close("index_value", doc["index_value"], self.index)
        _expect_close("index_percent", doc["index_percent"], 100.0 * self.index)


class GgiIngest(_GgiWorkload):
    """A crawl-style edge list: sparse 40-bit ids, a weight column, a
    header, about 1% self-loops and 4% duplicate or reversed lines."""

    name = INGEST
    work_unit = "edge lines"

    def prepare(self, seed, dest):
        rng = np.random.default_rng([seed, 1])
        n, lines = self.size["nodes"], self.size["lines"]
        n_self, n_dup = lines // 100, lines * 4 // 100
        edges = random_unique_edges(rng, n, lines - n_self - n_dup)
        ids = ref.sorted_unique(rng.integers(1 << 39, 1 << 40, size=2 * n))
        ids = np.sort(rng.choice(ids, n, replace=False))
        loops = rng.integers(0, n, size=n_self)
        dups = edges[rng.integers(0, len(edges), size=n_dup)]
        src = np.concatenate([edges[:, 0], loops, dups[:, 0]])
        dst = np.concatenate([edges[:, 1], loops, dups[:, 1]])
        flip = rng.random(lines) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
        order = rng.permutation(lines)
        rows = zip(ids[src[order]].tolist(), ids[dst[order]].tolist(), rng.random(lines).tolist())
        text = "".join(f"{a} {b} {w:.4f}\n" for a, b, w in rows)
        (dest / "crawl.edges").write_text("# source_id target_id weight\n" + text)
        # Rows follow ascending original id, as load_edge_list remaps them.
        names = self._write_configs(rng, dest, n, edges)
        write_manifest(dest, "crawl.edges", names, None)
        self.files = ["crawl.edges", "manifest.json", *names]
        self.tallies = (n_self, n_dup)
        self.work_per_pass = float(lines)
        self.working_set["edge_list_mb"] = (dest / "crawl.edges").stat().st_size / 1e6


class GgiStream(_GgiWorkload):
    """The ROADMAP acceptance shape, scaled down: a clean sorted edge
    list plus an identity id map, as ``gramstab synth`` writes them."""

    name = STREAM
    work_unit = "configs"

    def prepare(self, seed, dest):
        rng = np.random.default_rng([seed, 2])
        n = self.size["nodes"]
        edges = random_unique_edges(rng, n, self.size["edges"])
        text = "".join(f"{i} {j}\n" for i, j in edges.tolist())
        (dest / "graph.edges").write_text("# clean graph\n" + text)
        (dest / "ids.json").write_text(identity_id_map(n))
        names = self._write_configs(rng, dest, n, edges)
        write_manifest(dest, "graph.edges", names, "ids.json")
        self.files = ["graph.edges", "ids.json", "manifest.json", *names]
        self.tallies = (0, 0)
        self.work_per_pass = float(self.size["configs"])


class BaselineSuite(Workload):
    """All five comparison indices, one invocation each, on one ensemble."""

    name = SUITE
    work_unit = "pairs"

    def prepare(self, seed, dest):
        rng = np.random.default_rng([seed, 3])
        n, dim, count, k = (self.size[key] for key in ("nodes", "dim", "configs", "k"))
        edges = random_unique_edges(rng, n, self.size["edges"])
        (dest / "graph.edges").write_text("".join(f"{i} {j}\n" for i, j in edges.tolist()))
        (dest / "ids.json").write_text(identity_id_map(n))
        values = list(noisy_configs(rng, n, dim, count))
        names = [f"config_{idx:02d}.gge1" for idx in range(count)]
        for name, v in zip(names, values):
            (dest / name).write_bytes(gge1_bytes(v))
        write_manifest(dest, "graph.edges", names, "ids.json")
        self.files = ["graph.edges", "ids.json", "manifest.json", *names]
        neighbors = [ref.knn_cosine(v, k) for v in values]
        second, second_zero = ref.second_order_cosine(values, neighbors)
        aligned, aligned_zero = ref.aligned_cosine(values)
        self.expected = {
            "knn-jaccard": (ref.knn_jaccard(neighbors), {}),
            "second-order-cosine": (second, {"zero_vector_scores": second_zero}),
            "aligned-cosine": (
                aligned,
                {"zero_vector_scores": aligned_zero, "degenerate_alignments": 0},
            ),
            "hausdorff": (ref.hausdorff(values), {}),
            "wasserstein": (ref.wasserstein(values), {}),
        }
        self.n_configs = count
        self.tallies = (0, 0)
        self.work_per_pass = float(len(BASELINE_INDICES) * count * (count - 1) // 2)
        self.working_set = {"matrix_mb": n * dim * 8 / 1e6, "dense_vxv_mb": n * n * 8 / 1e6}

    def commands(self, dest):
        manifest = str(dest / "manifest.json")
        out = []
        for index in BASELINE_INDICES:
            argv = ["baseline", "--manifest", manifest, "--index", index]
            if index in NEIGHBOR_INDICES:
                argv += ["--k", str(self.size["k"]), "--metric", "cosine"]
            out.append((index, argv))
        return out

    def _check(self, label, stdout, dest):
        doc = _load_report(stdout, "baseline")
        per_pair, metadata = self.expected[label]
        _expect("index_name", doc["index_name"], label)
        _expect("n_configs", doc["n_configs"], self.n_configs)
        pairs = sorted(per_pair)
        _expect("pairs", [tuple(e["pair"]) for e in doc["per_pair"]], pairs)
        for entry, pair in zip(doc["per_pair"], pairs):
            _expect(f"labels {pair}", entry["labels"], [f"config_{i:02d}" for i in pair])
            _expect_close(f"score {pair}", entry["score"], per_pair[pair])
        _expect_close("aggregate", doc["aggregate"], np.mean([per_pair[p] for p in pairs]))
        for key, want in metadata.items():
            _expect(f"metadata {key}", doc["metadata"][key], want)


class SynthWrite(Workload):
    """``gramstab synth`` into a fresh directory, deleted (untimed) after
    each invocation. The output is parsed by this module's own readers,
    and its digests must not change between invocations."""

    name = SYNTH
    work_unit = "MB written"

    def prepare(self, seed, dest):
        self.seed = seed
        self.digests: dict | None = None
        n, dim = self.size["nodes"], self.size["dim"]
        self.working_set = {"matrix_mb": n * dim * 8 / 1e6}

    def commands(self, dest):
        s = self.size
        return [
            (
                "synth",
                [
                    "synth",
                    "--nodes", str(s["nodes"]),
                    "--avg-degree", str(s["avg_degree"]),
                    "--dim", str(s["dim"]),
                    "--configs", str(s["configs"]),
                    "--noise", str(NOISE),
                    "--seed", str(self.seed),
                    "--out-dir", str(dest / "out"),
                ],
            )
        ]

    def _check(self, label, stdout, dest):
        out = dest / "out"
        _expect("printed manifest", stdout.decode().strip(), str(out / "manifest.json"))
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        if self.digests is None:
            self._check_structure(out)
            self.digests = digests
            self.work_per_pass = sum(p.stat().st_size for p in out.iterdir()) / 1e6
        _expect("output digests", digests, self.digests)

    def _check_structure(self, out: Path) -> None:
        s = self.size
        n = s["nodes"]
        manifest = json.loads((out / "manifest.json").read_text())
        _expect("embedding count", len(manifest["embedding_paths"]), s["configs"])
        id_map = json.loads((out / manifest["node_id_map"]).read_text())
        _expect("id map", id_map, {str(i): i for i in range(n)})
        lines = [
            line
            for line in (out / manifest["graph_path"]).read_text().splitlines()
            if line and not line.startswith("#")
        ]
        pairs = np.array(" ".join(lines).split(), dtype=np.int64).reshape(-1, 2)
        _expect("edge count", len(pairs), int(round(n * s["avg_degree"] / 2)))
        if not (pairs[:, 0] < pairs[:, 1]).all() or pairs.min() < 0 or pairs.max() >= n:
            raise ValueError("edges are not canonical pairs 0 <= i < j < n")
        keys = pairs[:, 0] * n + pairs[:, 1]
        if (np.diff(keys) <= 0).any():
            raise ValueError("edges are not unique and sorted")
        for rel in manifest["embedding_paths"]:
            values = read_gge1(out / rel)
            _expect(f"{rel} shape", values.shape, (n, s["dim"]))
            if not np.isfinite(values).all():
                raise ValueError(f"{rel}: non-finite values")

    def after(self, dest):
        shutil.rmtree(dest / "out", ignore_errors=True)


WORKLOAD_TYPES = {w.name: w for w in (GgiIngest, GgiStream, BaselineSuite, SynthWrite)}


def make(name: str, scale: str) -> Workload:
    return WORKLOAD_TYPES[name](SCALES[scale][name])
