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

import functools
import hashlib
import io
import json
import os
import struct
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from . import core
from .core import (GraphTopology, _allocate, _check_shape, _is_permutation, _run_starts,
                   matrix_values)
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

# Bytes per read when hashing a file.
_HASH_BUFFER = 1 << 18


@dataclass(frozen=True)
class EdgeListResult:
    """Parsed edge list plus the original ids and cleanup tallies.

    ``ids[i]`` is row i's original id: the caller's array when one was
    given, otherwise the ascending int64 array the loader numbered.
    """

    graph: GraphTopology
    ids: np.ndarray
    self_loops_dropped: int
    duplicates_dropped: int


@dataclass(frozen=True)
class Manifest:
    """Paths describing one ensemble: a graph plus N embedding files."""

    graph_path: Path
    embedding_paths: tuple[Path, ...]
    labels: tuple[str, ...]
    node_id_map: Path | None = None


def _read_json(path, error: type, what: str = "invalid JSON"):
    """The JSON in ``path``; bytes not UTF-8, bad or too deeply nested JSON raise ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{what}: {exc}", path=path) from exc


def load_id_map(path) -> np.ndarray:
    """Read a JSON object mapping original node ids to row indices, and
    return ``ids``, where ``ids[row]`` is that row's original id.

    ``ids`` is int64, or an object array of Python ints when a key does
    not fit in int64. Rows must be integers (a float or boolean is a
    ParseError) forming a bijection onto 0..n-1, and no two keys may name
    the same integer id; anything else raises NotABijection.
    """
    raw = _read_json(path, ParseError, "invalid JSON id map")
    if not isinstance(raw, dict) or not raw:
        raise ParseError("id map must be a non-empty JSON object", path=path)
    keys, rows = [], []
    for key, value in raw.items():
        try:
            if isinstance(value, (bool, float)):  # int() makes 1.9 row 1, false row 0
                raise TypeError(f"row {value!r} is not an integer")
            keys.append(int(key))
            rows.append(int(value))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"id map entries must be integers, got {key!r}: {value!r}",
                             path=path) from exc
    try:
        keys = np.array(keys, dtype=np.int64)
    except OverflowError:  # a key past int64: only the rescan compares it exactly
        keys = np.array(keys, dtype=object)
    _require_distinct(keys, "id map", path=path)  # "1" and "01" spell one id
    rows = np.array(rows)
    if not _is_permutation(rows):
        raise NotABijection(f"id map values must be a bijection onto 0..{rows.size - 1}",
                            path=path)
    ids = np.empty_like(keys)
    ids[rows] = keys
    return ids


def _require_distinct(ids: np.ndarray, source: str, path: Path | None = None) -> None:
    """Raise NotABijection naming an id that ``ids``, read from ``path``
    if given, holds twice."""
    ordered = np.sort(ids)
    twice = ordered[1:][ordered[1:] == ordered[:-1]]
    if twice.size:
        raise NotABijection(f"{source} names id {twice[0]} twice", path=path)


def load_edge_list(path, ids: np.ndarray | None = None) -> EdgeListResult:
    """Parse a text edge list into a canonical undirected simple graph.

    Node ids need not be contiguous. Given ``ids``, as
    :func:`load_id_map` returns it, the id ``ids[i]`` becomes row i (and
    ``ids`` also fixes the node count, so isolated nodes survive); an id
    it holds twice is a NotABijection. Without it, the distinct ids are
    remapped to 0..n-1 in ascending order. Either way the result's
    ``ids`` holds row i's original id at ``ids[i]``. Self-loops and
    duplicate or reversed pairs are dropped and tallied.

    The file is parsed in one bulk call to numpy's C reader, and the ids
    are checked and remapped with array operations. When the bulk parse
    or a bulk check fails, the file is rescanned line by line: the
    rescan raises the exact ParseError with its line number, and also
    accepts the few integer spellings Python's ``int`` takes and numpy
    does not (``1_000``, non-ASCII digits), so the result never depends
    on which path ran.

    Memory: ingest runs inside the parsed (E, 2) int64 pairs. Their ids
    are ranked there by :func:`_rank_ids`, with or without ``ids``, which
    is read only at the distinct ids, and :meth:`GraphTopology.from_pairs`
    sorts their keys there and splits them into the graph's int32 edges,
    which keep half the pairs' bytes. Beside them are the distinct ids,
    temporaries of ``core._SPAN_ELEMENTS`` ids and the ranking's array:
    for dense ids a table of at most half the pairs' bytes, for packed
    ids int32 ranks of half their bytes, for ids spread over 63 bits an
    int64 ``argsort`` order of their size. Traced, the peak is 1.2 times
    the pairs' bytes at 1M lines of dense ids and 1.57-1.64 times at
    200k-1M lines of 40-bit ids, with or without ``ids``.
    """
    path = Path(path)
    if ids is not None:
        _require_distinct(ids, "ids")
    pairs = _read_pairs(path)
    if pairs is not None and pairs.size and ids is not None:
        pairs = _lookup_ids(pairs, ids)
    elif pairs is not None and pairs.size and pairs.min() < 0:
        pairs = None
    if pairs is None:
        pairs = _scan_edge_lines(path, ids)
    if not pairs.size:
        raise EmptyGraph("no edges found", path=path)
    if ids is None:
        ids = _rank_ids(pairs)
    graph, n_self, n_dup = GraphTopology.from_pairs(ids.size, pairs, copy=False)
    if graph.edge_count == 0:
        raise EmptyGraph("no edges left after dropping self-loops", path=path)
    return EdgeListResult(graph, ids, self_loops_dropped=n_self, duplicates_dropped=n_dup)


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
    distinct ids, and return those, sorted. The ids' span, ``max - min``,
    alone picks the way, and every pass that needs scratch goes
    ``core._SPAN_ELEMENTS`` ids at a time.

    Ids at least twice as many as the values of their span (``2 * (span
    + 1) <= count``) mark an int64 table over it, whose ``cumsum`` less
    one ranks them, and the pairs are taken through it. The table holds
    at most 4 bytes per id, no more than the packed sort's ranks.

    Otherwise one sort, whose order carries the ranks back. When the span
    leaves room for a position beside it in an int64 (``span < 2**(63 -
    bits)``, with ``bits`` the width of the largest position), each id is
    packed with its position as ``(id - min) << bits | position``, in
    ``pairs`` itself, and sorted there by value: the high bits come out
    as the sorted ids and the low bits as their order. That sort is 3-4
    times faster than ``argsort``: 12 against 41-45 ms for 800k ids,
    where the room is 2**43, enough for 40-bit crawl ids. A wider span,
    such as ids hashed to 63 bits, is ranked by ``argsort``. Ranks need
    no stable sort, and numpy's default kind sorts int64 several times
    faster than ``kind="stable"``.

    Memory: ``pairs``, the distinct ids, one chunk of scratch and the
    table; or the packed ranks in the dtype of :func:`core._index_dtype`
    (int32, half the pairs' bytes), copied back into ``pairs`` at the
    end; or ``argsort``'s int64 order, the pairs' size, while the ranks
    go straight into ``pairs``. A sort's distinct ids are moved to the
    front of the sorted array.
    """
    flat = pairs.ravel()  # a view: ``pairs`` is C-contiguous
    low = int(flat.min())
    id_span = int(flat.max()) - low
    if 2 * (id_span + 1) <= flat.size:
        flat -= low
        table = np.zeros(id_span + 1, dtype=np.int64)
        table[flat] = 1  # an int64 index is not copied
        ids = np.flatnonzero(table) + low
        np.cumsum(table, out=table)
        table -= 1
        _take_through(table, flat)
        return ids
    bits = (flat.size - 1).bit_length()
    packed = id_span < 1 << (63 - bits)
    step = min(core._SPAN_ELEMENTS, flat.size)
    ranks = np.empty(flat.size, dtype=core._index_dtype(flat.size)) if packed else flat
    # One chunk of scratch that every chunk reuses (temporaries allocated
    # anew for each chunk would each be given fresh pages): the positions of
    # one chunk while they are packed, then its order or, through argsort,
    # its ids. Past the last chunk int32 positions may wrap; they are not read.
    scratch = np.arange(step, dtype=ranks.dtype)
    if packed:
        keys = flat
        keys -= low
        keys <<= bits
        for lo in range(0, keys.size, step):
            span = keys[lo:lo + step]
            span |= scratch[:span.size]
            scratch += step
        keys.sort()
    else:
        keys = np.argsort(flat)
    count, last = 0, None  # distinct ids so far, and the one before the chunk
    for lo in range(0, keys.size, step):
        span = keys[lo:lo + step]
        if packed:
            order = np.bitwise_and(span, (1 << bits) - 1, out=scratch[:span.size])
            ids = span
            ids >>= bits
        else:
            # mode="clip" writes straight into ``out``; "raise" copies it.
            order, ids = span, np.take(flat, span, out=scratch[:span.size], mode="clip")
        first = _run_starts(ids, last)
        last = ids[-1]
        distinct = ids[first]
        # The ids are read: their bytes take the ranks, in the ranks' dtype.
        # Assigning through ``order`` casts int32 positions a buffer at a
        # time, where np.put would copy them all to int64 first.
        put = ids.view(ranks.dtype)[:ids.size]
        np.copyto(put, first)
        np.cumsum(put, out=put)  # a cumsum of ``first`` itself would copy it
        put += count - 1
        ranks[order] = put  # through argsort, the ids there have been read
        keys[count:count + distinct.size] = distinct
        count += distinct.size
    if packed:
        sorted_ids = keys[:count] + low
        flat[...] = ranks
        return sorted_ids
    keys.resize(count, refcheck=False)  # in place: the loop's views of it are not used again
    return keys


def _take_through(table: np.ndarray, flat: np.ndarray) -> None:
    """Replace each value v of the int64 ``flat`` by ``table[v]``, in place,
    ``core._SPAN_ELEMENTS`` values at a time through one reused buffer."""
    out = np.empty(min(core._SPAN_ELEMENTS, flat.size), dtype=np.int64)
    for lo in range(0, flat.size, out.size):
        span = flat[lo:lo + out.size]
        # mode="clip" writes straight into ``out``; "raise" copies it.
        span[...] = np.take(table, span, out=out[:span.size], mode="clip")


def _lookup_ids(pairs: np.ndarray, ids: np.ndarray) -> np.ndarray | None:
    """Map each id in ``pairs``, in place, to its row, the i with
    ``ids[i]`` equal to it, given distinct ``ids``; return ``pairs``, or
    None if an id is missing. :func:`_rank_ids` ranks the non-empty
    pairs, only the distinct ids it returns are searched for in ``ids``,
    and the ranks are taken through the rows found."""
    if ids.dtype != np.int64 or not ids.size:
        # Ids beyond int64 (numpy would compare them with int64 ids as
        # float64), not integers or none: the rescan looks them up exactly.
        return None
    present = _rank_ids(pairs)
    order = np.argsort(ids)
    # An id past the largest in ``ids`` is searched for at the largest.
    rows = order[np.minimum(np.searchsorted(ids, present, sorter=order), ids.size - 1)]
    if not np.array_equal(ids[rows], present):  # an id is missing
        return None
    _take_through(rows, pairs.ravel())
    return pairs


def _scan_edge_lines(path: Path, ids: np.ndarray | None) -> np.ndarray:
    """Line-by-line parse behind :func:`load_edge_list`'s bulk path.

    Raises the ParseError of the first bad line. Returns the pairs as an
    (E, 2) int64 array, already mapped to rows of ``ids`` if given.
    """
    id_map = None if ids is None else dict(zip(ids.tolist(), range(ids.size)))
    pairs: list[tuple[int, int]] = []
    with path.open("rb") as handle:
        for line_number, line in enumerate(_text_lines(path, handle), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            tokens = body.split()
            where = {"path": path, "line": line_number}
            if len(tokens) < 2:
                raise ParseError(f"expected at least two columns, got {len(tokens)}", **where)
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ParseError(f"node ids must be integers: {exc}", **where) from exc
            if id_map is not None:
                try:
                    a, b = id_map[a], id_map[b]
                except KeyError as exc:
                    message = f"node id {exc.args[0]} is not in the id map"
                    raise ParseError(message, **where) from exc
            elif a < 0 or b < 0:
                raise ParseError("node ids must be non-negative", **where)
            elif max(a, b) > _INT64_MAX:
                raise ParseError(
                    f"node id {max(a, b)} does not fit in a signed 64-bit integer", **where
                )
            pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


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
                raise ParseError(f"not UTF-8 text: byte {byte:#04x}", path=path, line=number)
            yield line


def save_edge_list(path, graph: GraphTopology, comment: str | None = None) -> None:
    """Write ``graph`` as a text edge list :func:`load_edge_list` reads back.

    The file is an optional comment, one ``# `` line per line of
    ``comment``, then one ``i j`` line per edge, in decimal, in the
    graph's canonical order, with ``\\n`` line ends, written a span at a
    time by :func:`_save_decimal_lines`.
    """
    # The line breaks that both edge-list readers honour.
    lines = comment.replace("\r\n", "\n").replace("\r", "\n").split("\n") if comment else []
    head = "".join(f"# {line}\n" for line in lines).encode("utf-8")
    _save_decimal_lines(path, head, range(graph.edge_count), lambda lo, hi: graph.edges[lo:hi],
                        (b"", b" ", b"\n"))


def _save_identity_id_map(path, node_count: int) -> None:
    """Write the JSON id map that sends each id 0..node_count-1 to the row
    of the same number: ``{``, one ``  "i": i`` entry per line, ``}``. The
    entries after the first, each led by its ``,\\n``, go out a span at a
    time by :func:`_save_decimal_lines`."""
    _save_decimal_lines(path, b'{\n  "0": 0', range(1, node_count),
                        lambda lo, hi: np.arange(lo, hi).repeat(2).reshape(-1, 2),
                        (b',\n  "', b'": ', b""), b"\n}\n")


def _save_decimal_lines(path, head: bytes, rows: range, columns, parts, tail=b"") -> None:
    """Write ``head``, the :func:`_decimal_lines` text of ``rows``, then
    ``tail`` to ``path``. The rows go a span lo:hi of ``core._SPAN_ELEMENTS``
    ids at a time, each given by ``columns(lo, hi)``, so the text of a
    whole file is never held at once."""
    step = max(1, core._SPAN_ELEMENTS // (len(parts) - 1))
    scratch = np.empty(0, dtype=np.uint32)
    with Path(path).open("wb") as handle:
        handle.write(head)
        for lo in range(rows.start, rows.stop, step):
            handle.write(_decimal_lines(columns(lo, min(lo + step, rows.stop)), parts, scratch))
        handle.write(tail)


def _decimal_lines(columns: np.ndarray, parts: tuple[bytes, ...],
                   scratch: np.ndarray | None = None) -> bytes:
    """The non-negative (R, C) integer ``columns`` as decimal text, row
    after row: ``parts[0]``, column 0, ``parts[1]``, ..., column C-1,
    ``parts[C]``. ``b""`` when R is 0. The text and its mask are laid out
    in ``scratch``, a uint32 array that owns its data, grown in place when
    it is too small, so that the calls of one file reuse its pages.

    Array code only. Each row is laid out in 4-byte words: each part in
    as few words as hold it, then each column in as many 4-digit groups
    as its largest value needs. The groups come from repeated division by
    10**4, and their text and a mask of the bytes to keep come from
    :func:`_group_tables`; one boolean compress drops the rest, the
    parts' padding and the leading zeros. Each part is padded at its
    end, so that a column's digits and the part after them are kept as
    one run, which the compress copies faster.
    """
    digit_groups, group_keep = _group_tables()
    count, cols = columns.shape
    groups = [-(-len(str(int(columns[:, c].max(initial=0)))) // 4) for c in range(cols)]
    width = sum(-(-len(part) // 4) for part in parts) + sum(groups)
    words = count * width
    if scratch is None:
        scratch = np.empty(2 * words, dtype=np.uint32)
    elif scratch.size < 2 * words:
        scratch.resize(2 * words, refcheck=False)  # no view of it outlives a call
    text = scratch[:words].reshape(count, width)
    keep = scratch[words:2 * words].reshape(count, width)
    word = 0
    for c, part in enumerate(parts):
        pad = bytes(-len(part) % 4)
        for glyphs, kept in zip(np.frombuffer(part + pad, np.uint32),
                                np.frombuffer(b"\1" * len(part) + pad, np.uint32)):
            text[:, word] = glyphs
            keep[:, word] = kept
            word += 1
        if c == cols:
            break
        rest = columns[:, c].astype(np.int64)  # int64 whatever the columns hold: no product wraps
        above = np.empty_like(rest)
        for g in range(groups[c] - 1, -1, -1):  # the lowest group first
            np.floor_divide(rest, 10_000, out=above)
            rest -= above * 10_000  # group g
            text[:, word + g] = digit_groups[rest]
            if g == groups[c] - 1:
                np.maximum(rest, 1, out=rest)  # a lone 0 keeps its digit
            rest += np.minimum(above, 1) * 10_000
            keep[:, word + g] = group_keep[rest]
            rest, above = above, rest
        word += groups[c]
    return text.view(np.uint8).ravel()[keep.view(bool).ravel()].tobytes()


@functools.cache
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The lookup tables of :func:`_decimal_lines`, as uint32 arrays of
    4-byte groups: the ASCII of each value below 10**4, zero-padded
    ("0000" to "9999"), and one bool per byte of a group, true for the
    bytes to keep. At [g] the latter marks the significant digits of g
    as a number's leading group (none for 0); at [10**4 + g], all four,
    for a group below a nonzero one.

    Built on first use, so that a command that writes no text never
    holds them.
    """
    values = np.arange(20_000, dtype=np.uint16)[:, None]
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits = (values[:10_000] // places % 10 + ord("0")).astype(np.uint8)
    tables = digits.view(np.uint32).ravel(), (values >= places).view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def load_embeddings(path) -> np.ndarray:
    """:func:`load_embedding_values` checked by :func:`~gramstab.core.matrix_values`.

    The two stay apart because perfbench times each by name, so merging
    them is a change to the benchmark."""
    return matrix_values(load_embedding_values(path), path=path)


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
    expected = len(GGE1_MAGIC) + _HEADER.size
    if actual >= expected:  # else the header itself is cut short
        rows, cols = _HEADER.unpack(handle.read(_HEADER.size))
        # A zero side passes the size check however large the other side is.
        _check_shape((rows, cols), path=path)
        expected += rows * cols * 8
    if actual < expected:
        raise TruncatedFile(f"truncated file, expected {expected} bytes but found {actual}",
                            path=path)
    if actual > expected:
        raise TrailingBytes(f"{actual - expected} trailing bytes, expected {expected} bytes "
                            f"but found {actual}", path=path)
    values = _allocate(rows * cols, "<f8", f"a {rows} x {cols} embedding needs", "values",
                       path=path)
    found = expected - values.nbytes + handle.readinto(values)
    if found < expected:  # the file shrank after the size check
        raise TruncatedFile(f"truncated file, expected {expected} bytes but found {found}",
                            path=path)
    return values.reshape(rows, cols)


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
            raise ParseError(f"could not parse value: {exc}", path=path, line=line_number) from exc
        if cols is None:
            cols = row.size
        elif row.size != cols:
            raise ParseError(f"expected {cols} columns, got {row.size}", path=path,
                             line=line_number)
        rows.append(row)
    if not rows:
        raise ParseError("file contains no data rows", path=path)
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
    file stems) and ``node_id_map``. Unknown keys are ignored.
    """
    path = Path(path)
    raw = _read_json(path, ManifestError)
    if not isinstance(raw, dict):
        raise ManifestError("manifest must be a JSON object", path=path)
    try:
        graph_path = raw["graph_path"]
        embedding_paths = raw["embedding_paths"]
    except KeyError as exc:
        raise ManifestError(f"missing required key {exc.args[0]!r}", path=path) from exc
    if not isinstance(embedding_paths, list) or len(embedding_paths) < 2:
        raise ManifestError("embedding_paths must list at least 2 files", path=path)
    node_id_map = raw.get("node_id_map")
    named = [("graph_path", graph_path), *(("embedding_paths", p) for p in embedding_paths)]
    if node_id_map is not None:
        named.append(("node_id_map", node_id_map))
    for key, value in named:
        # An empty string would name the manifest's own directory.
        if not isinstance(value, str) or not value:
            raise ManifestError(f"{key}: expected a path string, got {value!r}", path=path)
    base = path.parent
    embeddings = tuple(base / p for p in embedding_paths)
    # Spellings such as "a.gge1" and "./a.gge1" name one file; counting
    # it twice would report a single configuration as perfectly stable.
    if len({p.resolve() for p in embeddings}) != len(embeddings):
        raise ManifestError("embedding_paths must name distinct files", path=path)
    labels = raw.get("labels")
    if labels is None:
        labels = tuple(Path(p).stem for p in embedding_paths)
    else:
        if not isinstance(labels, list):
            raise ManifestError(f"labels must be a list, got {labels!r}", path=path)
        if len(labels) != len(embedding_paths):
            raise ManifestError("labels must match embedding_paths in length", path=path)
        labels = tuple(str(label) for label in labels)
    return Manifest(
        graph_path=base / graph_path,
        embedding_paths=embeddings,
        labels=labels,
        node_id_map=None if node_id_map is None else base / node_id_map,
    )


def save_manifest(path, graph_path, embedding_paths, labels=None, node_id_map=None,
                  extra: dict | None = None) -> None:
    """Write a manifest with paths stored relative to the manifest file,
    and the keys of ``extra`` beside them (:func:`load_manifest` ignores
    those)."""
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
