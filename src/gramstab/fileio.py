"""On-disk formats: edge lists, embedding files, manifests, reports.

Embeddings travel either as GGE1 binary (magic ``GGE1``, then row and
column counts as unsigned 64-bit little-endian integers, then row-major
IEEE-754 float64 values, also little-endian) or as plain CSV with one
node per line. The binary format stores 64-bit floats on purpose: the
indices downstream subtract nearly equal quantities, and precision
headroom is cheap. Edge lists are whitespace-separated integer pairs
with ``#`` comments; extra columns are ignored.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import GraphTopology, matrix_values
from .errors import (
    EmptyGraph,
    ManifestError,
    NotABijection,
    ParseError,
    TrailingBytes,
    TruncatedFile,
)

GGE1_MAGIC = b"GGE1"
_HEADER = struct.Struct("<QQ")
_INT64_MAX = np.iinfo(np.int64).max

# %.17g round-trips any float64 exactly.
_CSV_FORMAT = "%.17g"

# Node ids per formatted chunk of an edge list written by save_edge_list.
_EDGE_CHUNK_IDS = 1 << 16

# An id map whose keys are non-negative and below this many times their
# count is looked up through a dense table. The table beat binary search
# at every spread measured, up to 256 times the id count, so memory sets
# the cutoff: at 8 the table takes at most 64 bytes per id, less than
# the id map's dict already holds.
_DENSE_ID_SPREAD = 8

# Bytes per read when hashing a file.
_HASH_BUFFER = 1 << 18


@dataclass(frozen=True)
class EdgeListResult:
    """Parsed edge list plus the id remapping and cleanup tallies."""

    graph: GraphTopology
    id_map: dict
    self_loops_dropped: int
    duplicates_dropped: int


@dataclass(frozen=True)
class Manifest:
    """Paths describing one ensemble: a graph plus N embedding files."""

    graph_path: Path
    embedding_paths: tuple[Path, ...]
    labels: tuple[str, ...]
    node_id_map: Path | None = None
    path: Path | None = None
    extra: dict = field(default_factory=dict)

    @property
    def n_configs(self) -> int:
        return len(self.embedding_paths)


def load_id_map(path) -> dict:
    """Read a JSON object mapping original node ids to row indices.

    Values must be integers (a float or boolean is a ParseError) forming
    a bijection onto 0..n-1; anything else raises NotABijection.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON id map: {exc}", path=str(path)) from exc
    if not isinstance(raw, dict) or not raw:
        raise ParseError("id map must be a non-empty JSON object", path=str(path))
    mapping = {}
    for key, value in raw.items():
        try:
            if isinstance(value, (bool, float)):  # int() makes 1.9 row 1, false row 0
                raise TypeError(f"row {value!r} is not an integer")
            mapping[int(key)] = int(value)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"id map entries must be integers, got {key!r}: {value!r}",
                path=str(path),
            ) from exc
    rows = sorted(mapping.values())
    if rows != list(range(len(mapping))):
        raise NotABijection(
            f"{path}: id map values must be a bijection onto 0..{len(mapping) - 1}"
        )
    return mapping


def load_edge_list(path, id_map: dict | None = None) -> EdgeListResult:
    """Parse a text edge list into a canonical undirected simple graph.

    Node ids need not be contiguous: without an explicit ``id_map`` the
    distinct ids are remapped to 0..n-1 in ascending order and the
    mapping is returned. With one, ids are looked up in it (and the map
    also fixes the node count, so isolated nodes survive). Self-loops
    and duplicate or reversed pairs are dropped and tallied.

    The file is parsed in one bulk call to numpy's C reader, and the ids
    are checked and remapped with array operations. When the bulk parse
    or a bulk check fails, the file is rescanned line by line: the
    rescan raises the exact ParseError with its line number, and also
    accepts the few integer spellings Python's ``int`` takes and numpy
    does not (``1_000``, non-ASCII digits), so the result never depends
    on which path ran.
    """
    path = Path(path)
    pairs = _read_pairs(path)
    if pairs is not None and id_map is not None:
        pairs = _lookup_ids(pairs, id_map)
    elif pairs is not None and pairs.size and pairs.min() < 0:
        pairs = None
    if pairs is None:
        pairs = _scan_edge_lines(path, id_map)
    if not pairs.size:
        raise EmptyGraph(f"{path}: no edges found")
    if id_map is None:
        original = _rank_ids(pairs)
        id_map = dict(zip(original.tolist(), range(original.size)))
        node_count = original.size
    else:
        node_count = len(id_map)
    graph, n_self, n_dup = GraphTopology.from_pairs(node_count, pairs)
    if graph.edge_count == 0:
        raise EmptyGraph(f"{path}: no edges left after dropping self-loops")
    return EdgeListResult(
        graph=graph,
        id_map=id_map,
        self_loops_dropped=n_self,
        duplicates_dropped=n_dup,
    )


def _read_pairs(path: Path) -> np.ndarray | None:
    """The first two columns as an (E, 2) int64 array, or None if the
    bulk parse fails (the rescan then finds out why)."""
    try:
        with warnings.catch_warnings():
            # A file without edges is reported as EmptyGraph by the caller.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(
                path,
                dtype=np.int64,
                comments="#",
                usecols=(0, 1),
                ndmin=2,
                encoding="utf-8",
            )
    except (OSError, ValueError):
        return None


def _rank_ids(pairs: np.ndarray) -> np.ndarray:
    """Replace each id in ``pairs``, in place, by its rank among the
    distinct ids, and return those, sorted. One sort, whose order carries
    the ranks back; ranks need no stable sort, and numpy's default kind
    sorts int64 several times faster than ``kind="stable"``."""
    order = np.argsort(pairs, axis=None)
    ids = pairs.ravel()[order]
    first = np.empty(ids.size, dtype=bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    distinct = ids[first]
    np.cumsum(first, out=ids)  # the sorted ids are spent: their ranks + 1
    ids -= 1
    np.put(pairs, order, ids)
    return distinct


def _lookup_ids(pairs: np.ndarray, id_map: dict) -> np.ndarray | None:
    """Map ids to rows through ``id_map``; None if an id is missing.

    Non-negative keys below ``_DENSE_ID_SPREAD`` times their count index a
    table of rows directly; other keys are looked up by binary search.
    """
    keys = np.array(list(id_map))
    if keys.dtype != np.int64:
        # Keys beyond int64 (numpy would compare them with int64 ids as
        # float64) or keys that are not integers: the rescan looks them
        # up exactly.
        return None
    rows = np.array(list(id_map.values()), dtype=np.int64)
    top = int(keys.max())
    if keys.min() >= 0 and top < _DENSE_ID_SPREAD * keys.size:
        table = np.full(top + 1, -1, dtype=np.int64)
        table[keys] = rows
        # ``initial`` keeps the bounds check valid on an edge list without edges.
        if pairs.min(initial=0) < 0 or pairs.max(initial=0) > top:
            return None
        mapped = table[pairs]
        return None if (mapped < 0).any() else mapped
    order = np.argsort(keys)
    keys, rows = keys[order], rows[order]
    pos = np.searchsorted(keys, pairs)
    found = pos < keys.size
    if not found.all() or (keys[pos] != pairs).any():
        return None
    return rows[pos]


def _scan_edge_lines(path: Path, id_map: dict | None) -> np.ndarray:
    """Line-by-line parse behind :func:`load_edge_list`'s bulk path.

    Raises the ParseError of the first bad line. Returns the pairs as an
    (E, 2) int64 array, already mapped through ``id_map`` if one is given.
    """
    sources: list[int] = []
    targets: list[int] = []
    with path.open("rb") as handle:
        for line_number, line in enumerate(_text_lines(path, handle), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            tokens = body.split()
            if len(tokens) < 2:
                raise ParseError(
                    f"expected at least two columns, got {len(tokens)}",
                    path=str(path),
                    line=line_number,
                )
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ParseError(
                    f"node ids must be integers: {exc}",
                    path=str(path),
                    line=line_number,
                ) from exc
            if id_map is not None:
                try:
                    a, b = id_map[a], id_map[b]
                except KeyError as exc:
                    raise ParseError(
                        f"node id {exc.args[0]} is not in the id map",
                        path=str(path),
                        line=line_number,
                    ) from exc
            elif a < 0 or b < 0:
                raise ParseError(
                    "node ids must be non-negative",
                    path=str(path),
                    line=line_number,
                )
            elif max(a, b) > _INT64_MAX:
                raise ParseError(
                    f"node id {max(a, b)} does not fit in a signed 64-bit integer",
                    path=str(path),
                    line=line_number,
                )
            sources.append(a)
            targets.append(b)
    return np.column_stack(
        [np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)]
    )


def _text_lines(path: Path, handle) -> Iterator[str]:
    """Lines of the binary ``handle`` from its start, as a UTF-8 text-mode
    file reads them; bytes that are not UTF-8 are a ParseError naming
    their line."""
    handle.seek(0)
    # Each byte that is not UTF-8 decodes to a lone surrogate, which does not encode.
    # Closing the wrapper closes ``handle`` too; the caller's own close is then a no-op.
    with io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape") as text:
        for number, line in enumerate(text, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise ParseError(f"not UTF-8 text: byte {byte:#04x}", path=str(path), line=number)
            yield line


def save_edge_list(path, graph: GraphTopology, comment: str | None = None) -> None:
    """Write ``graph`` as a text edge list :func:`load_edge_list` reads back.

    The file is an optional ``# comment`` line, then one ``i j`` line per
    edge, in decimal, in the graph's canonical order. Edges are formatted
    ``_EDGE_CHUNK_IDS`` ids (32,768 edges) at a time, by one ``%`` over the
    chunk's ids and one write. The chunks are bounded because formatting
    the whole list at once holds every id as a Python int, and the
    format string and text of the whole file: 20 MB at 200k edges,
    against about 3 MB for one chunk.
    """
    path = Path(path)
    ids = graph.edges.ravel()
    with path.open("w", encoding="utf-8") as handle:
        if comment:
            handle.write(f"# {comment}\n")
        for start in range(0, ids.size, _EDGE_CHUNK_IDS):
            chunk = ids[start:start + _EDGE_CHUNK_IDS].tolist()
            handle.write("%d %d\n" * (len(chunk) // 2) % tuple(chunk))


def load_embeddings(path) -> np.ndarray:
    """:func:`load_embedding_values` checked by :func:`~gramstab.core.matrix_values`.

    The two stay apart because perfbench times each by name, so merging
    them is a change to the benchmark."""
    return matrix_values(load_embedding_values(path))


def load_embedding_values(path) -> np.ndarray:
    """Read one embedding matrix, unchecked: GGE1 when the file starts with
    the GGE1 magic, CSV otherwise.

    The array is freshly allocated and safe for callers to mutate; the
    streaming index pipeline relies on that to preprocess in place.
    """
    path = Path(path)
    with path.open("rb") as handle:
        if handle.read(len(GGE1_MAGIC)) == GGE1_MAGIC:
            return _read_gge1(path, handle)
        return _read_csv(path, _text_lines(path, handle))


def _read_gge1(path: Path, handle) -> np.ndarray:
    """The matrix behind a GGE1 header; ``handle`` is just past the magic."""
    actual = os.fstat(handle.fileno()).st_size
    header_bytes = len(GGE1_MAGIC) + _HEADER.size
    if actual < header_bytes:
        raise TruncatedFile(str(path), header_bytes, actual)
    rows, cols = _HEADER.unpack(handle.read(_HEADER.size))
    expected = header_bytes + rows * cols * 8
    if actual < expected:
        raise TruncatedFile(str(path), expected, actual)
    if actual > expected:
        raise TrailingBytes(str(path), expected, actual)
    return np.fromfile(handle, dtype="<f8", count=rows * cols).reshape(rows, cols)


def _read_csv(path: Path, lines: Iterator[str]) -> np.ndarray:
    rows: list[np.ndarray] = []
    cols: int | None = None
    for line_number, line in enumerate(lines, start=1):
        body = line.strip()
        if not body:
            continue
        tokens = body.split(",")
        try:
            row = np.array([float(tok) for tok in tokens], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(
                f"could not parse value: {exc}", path=str(path), line=line_number
            ) from exc
        if cols is None:
            cols = row.size
        elif row.size != cols:
            raise ParseError(
                f"expected {cols} columns, got {row.size}",
                path=str(path),
                line=line_number,
            )
        rows.append(row)
    if not rows:
        raise ParseError("file contains no data rows", path=str(path))
    return np.vstack(rows)


def save_embeddings(path, mat, fmt: str = "gge1") -> None:
    """Write one matrix as GGE1 (bit-exact) or CSV (17 significant digits)."""
    path = Path(path)
    values = np.ascontiguousarray(mat, dtype=np.float64)
    if fmt == "gge1":
        with path.open("wb") as handle:
            handle.write(GGE1_MAGIC)
            handle.write(_HEADER.pack(values.shape[0], values.shape[1]))
            handle.write(memoryview(values.astype("<f8", copy=False)).cast("B"))
    elif fmt == "csv":
        np.savetxt(path, values, fmt=_CSV_FORMAT, delimiter=",")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_manifest(path) -> Manifest:
    """Read an ensemble manifest; relative paths resolve against it.

    Required keys: ``graph_path`` and ``embedding_paths`` (at least two,
    all distinct). Optional: ``labels`` (one per embedding, defaults to
    file stems) and ``node_id_map``. Unknown keys are preserved in
    ``extra`` and otherwise ignored.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    try:
        graph_path = raw["graph_path"]
        embedding_paths = raw["embedding_paths"]
    except KeyError as exc:
        raise ManifestError(f"{path}: missing required key {exc.args[0]!r}") from exc
    if not isinstance(embedding_paths, list) or len(embedding_paths) < 2:
        raise ManifestError(f"{path}: embedding_paths must list at least 2 files")
    node_id_map = raw.get("node_id_map")
    named = [("graph_path", graph_path), *(("embedding_paths", p) for p in embedding_paths)]
    if node_id_map is not None:
        named.append(("node_id_map", node_id_map))
    for key, value in named:
        if not isinstance(value, str):
            raise ManifestError(f"{path}: {key}: expected a path string, got {value!r}")
    base = path.parent
    embeddings = tuple(base / p for p in embedding_paths)
    # Spellings such as "a.gge1" and "./a.gge1" name one file; counting
    # it twice would report a single configuration as perfectly stable.
    if len({p.resolve() for p in embeddings}) != len(embeddings):
        raise ManifestError(f"{path}: embedding_paths must name distinct files")
    labels = raw.get("labels")
    if labels is None:
        labels = tuple(Path(p).stem for p in embedding_paths)
    else:
        if not isinstance(labels, list):
            raise ManifestError(f"{path}: labels must be a list, got {labels!r}")
        if len(labels) != len(embedding_paths):
            raise ManifestError(f"{path}: labels must match embedding_paths in length")
        labels = tuple(str(label) for label in labels)
    extra = {
        k: v
        for k, v in raw.items()
        if k not in ("graph_path", "embedding_paths", "labels", "node_id_map")
    }
    return Manifest(
        graph_path=base / graph_path,
        embedding_paths=embeddings,
        labels=labels,
        node_id_map=(base / node_id_map) if node_id_map else None,
        path=path,
        extra=extra,
    )


def save_manifest(path, graph_path, embedding_paths, labels=None, node_id_map=None,
                  extra: dict | None = None) -> None:
    """Write a manifest with paths stored relative to the manifest file."""
    path = Path(path)
    base = path.parent

    def rel(p) -> str:
        p = Path(p)
        try:
            return p.relative_to(base).as_posix()
        except ValueError:
            return str(p)

    doc: dict = {
        "graph_path": rel(graph_path),
        "embedding_paths": [rel(p) for p in embedding_paths],
    }
    if labels is not None:
        doc["labels"] = list(labels)
    if node_id_map is not None:
        doc["node_id_map"] = rel(node_id_map)
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def sha256_file(path, stop: threading.Event | None = None) -> str | None:
    """Hex SHA-256 of a file's bytes, read through one reused buffer.

    With a ``stop`` event, returns None at the first read after it is set.
    """
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BUFFER)
    view = memoryview(buffer)
    with Path(path).open("rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            if stop is not None and stop.is_set():
                return None
            digest.update(view[:size])
    return digest.hexdigest()


def report_to_json(report: dict) -> str:
    """Serialize a report document deterministically.

    Key order follows construction order and floats use Python's
    shortest round-trip representation, so equal inputs produce byte
    identical documents.
    """
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
