"""File formats: binary and CSV embeddings, edge lists, manifests."""

import hashlib
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gramstab import (
    EmptyGraph,
    GraphTopology,
    ManifestError,
    NotABijection,
    ParseError,
    TrailingBytes,
    TruncatedFile,
    load_edge_list,
    load_embeddings,
    load_id_map,
    load_manifest,
    save_edge_list,
    save_embeddings,
    save_manifest,
)
import gramstab.core as core_mod
import gramstab.fileio as fileio_mod
from gramstab.fileio import (
    _HASH_BUFFER,
    GGE1_MAGIC,
    _decimal_lines,
    _save_identity_id_map,
    report_to_json,
    sha256_file,
)
from gramstab.transforms import random_graph

import oracles


@pytest.fixture
def values():
    rng = np.random.default_rng(0)
    # Include exact awkward values: negative zero, tiny, huge, integers.
    out = rng.normal(size=(7, 3))
    out[0, 0] = -0.0
    out[1, 1] = 1e-308
    out[2, 2] = 1.7976931348623157e308
    out[3, 0] = 3.0
    return out


def test_gge1_round_trip_is_bit_exact(tmp_path, values):
    path = tmp_path / "m.gge1"
    save_embeddings(path, values, fmt="gge1")
    back = load_embeddings(path)
    assert back.dtype == np.float64
    assert np.array_equal(
        back.view(np.uint64), values.view(np.uint64)
    )  # bit-level identity, including -0.0


def test_gge1_layout_is_as_documented(tmp_path):
    path = tmp_path / "m.gge1"
    save_embeddings(path, np.array([[1.0, 2.0]]), fmt="gge1")
    raw = path.read_bytes()
    assert raw[:4] == GGE1_MAGIC
    assert int.from_bytes(raw[4:12], "little") == 1  # rows
    assert int.from_bytes(raw[12:20], "little") == 2  # cols
    assert np.frombuffer(raw[20:], dtype="<f8").tolist() == [1.0, 2.0]


def test_csv_round_trip_is_value_exact(tmp_path, values):
    path = tmp_path / "m.csv"
    save_embeddings(path, values, fmt="csv")
    back = load_embeddings(path)
    # %.17g prints enough digits to round-trip every float64 value.
    assert np.array_equal(back, values)


def test_format_autodetection(tmp_path, values):
    gge1 = tmp_path / "a.gge1"
    csv = tmp_path / "b.csv"
    save_embeddings(gge1, values, fmt="gge1")
    save_embeddings(csv, values, fmt="csv")
    assert np.array_equal(load_embeddings(gge1), values)
    assert np.array_equal(load_embeddings(csv), values)


def test_truncated_header_and_payload(tmp_path, values):
    path = tmp_path / "m.gge1"
    save_embeddings(path, values, fmt="gge1")
    whole = path.read_bytes()

    header_cut = tmp_path / "h.gge1"
    header_cut.write_bytes(whole[:10])
    with pytest.raises(TruncatedFile):
        load_embeddings(header_cut)

    payload_cut = tmp_path / "p.gge1"
    payload_cut.write_bytes(whole[:-8])
    with pytest.raises(TruncatedFile) as err:
        load_embeddings(payload_cut)
    assert f"expected {len(whole)} bytes but found {len(whole) - 8}" in str(err.value)

    # A longer file is as wrong as a shorter one: the header no longer
    # describes what the file holds.
    padded = tmp_path / "t.gge1"
    padded.write_bytes(whole + b"\0" * 8)
    with pytest.raises(TrailingBytes) as err:
        load_embeddings(padded)
    assert f"expected {len(whole)} bytes but found {len(whole) + 8}" in str(err.value)


def test_gge1_that_shrinks_after_its_size_check(tmp_path, monkeypatch, values):
    # The payload is read into a fresh array: a file cut short after the
    # size check must not leave part of that array unread.
    path = tmp_path / "m.gge1"
    save_embeddings(path, values, fmt="gge1")
    whole = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    fake = os.stat_result((0,) * 6 + (whole, 0, 0, 0))  # st_size is field 6
    monkeypatch.setattr(fileio_mod.os, "fstat", lambda fd: fake)
    with pytest.raises(TruncatedFile, match=f"expected {whole} bytes but found {whole - 8}$"):
        load_embeddings(path)


def test_csv_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(bad)
    assert err.value.line == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError) as err:
        load_embeddings(ragged)
    assert err.value.line == 2


def test_edge_list_comments_and_extra_columns(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text(
        "# a comment line\n"
        "0 1 0.75  # trailing weight ignored\n"
        "\n"
        "1 2 extra tokens dropped\n"
    )
    result = load_edge_list(path)
    assert result.graph.edges.tolist() == [[0, 1], [1, 2]]
    assert result.self_loops_dropped == 0
    assert result.duplicates_dropped == 0


def test_edge_list_remaps_noncontiguous_ids(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("10 500\n500 9000\n")
    result = load_edge_list(path)
    assert result.graph.node_count == 3
    assert result.ids.dtype == np.int64
    assert result.ids.tolist() == [10, 500, 9000]
    assert result.graph.edges.tolist() == [[0, 1], [1, 2]]


def test_sparse_ids_load_as_one_array(tmp_path):
    # 200k distinct 40-bit ids without an id map: the result holds row i's
    # original id in an int64 array, not a Python object per id.
    rng = np.random.default_rng(19)
    ids = rng.permutation(np.unique(rng.integers(0, 2**40, size=200_100))[:200_000])
    pairs = ids.reshape(-1, 2)
    path = tmp_path / "sparse.edges"
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs.tolist()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = load_edge_list(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 3 * (result.graph.edges.nbytes + result.ids.nbytes)
    assert result.ids.dtype == np.int64 and (np.diff(result.ids) > 0).all()
    canonical = np.sort(pairs, axis=1)
    canonical = canonical[np.lexsort((canonical[:, 1], canonical[:, 0]))]
    np.testing.assert_array_equal(result.ids[result.graph.edges], canonical)


@pytest.mark.parametrize("top", [2**40, 2**63 - 1], ids=["40-bit", "63-bit"])
def test_sparse_id_ingest_holds_the_pairs_and_one_array(tmp_path, top):
    # 200k lines over 20k sparse ids, without an id map, with 1% self-loops
    # and 4% repeated or reversed lines. Past the parse, ranking the ids and
    # canonicalizing the pairs each hold the parsed pairs plus one int64
    # array of their size and chunk-sized temporaries: 40-bit ids are
    # ranked through packed keys, ids spread over 63 bits through argsort.
    rng = np.random.default_rng(31)
    lines, nodes = 200_000, 20_000
    ids = np.unique(rng.integers(top // 2, top, size=2 * nodes))[:nodes]
    pairs = rng.integers(0, nodes, size=(lines, 2))
    pairs[: lines // 100, 1] = pairs[: lines // 100, 0]
    repeats = slice(lines // 100, lines // 20)
    pairs[repeats] = pairs[-(lines // 20 - lines // 100):, ::-1]
    path = tmp_path / "crawl.edges"
    path.write_text("".join(f"{a} {b} 1.0\n" for a, b in ids[pairs].tolist()))
    calls, original = [], np.argsort

    def argsort(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio_mod.np, "argsort", argsort)
        tracemalloc.start()
        try:
            result = load_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert bool(calls) == (top > 2**40)
    assert peak <= 2.75 * pairs.nbytes, peak / pairs.nbytes
    present = np.unique(pairs)  # the rows, in the order of their ids
    rows = np.searchsorted(present, pairs)
    loops = rows[:, 0] == rows[:, 1]
    expected = np.unique(np.sort(rows[~loops], axis=1), axis=0)
    np.testing.assert_array_equal(result.ids, ids[present])
    np.testing.assert_array_equal(result.graph.edges, expected)
    assert result.self_loops_dropped == loops.sum()
    assert result.duplicates_dropped == (~loops).sum() - expected.shape[0]


def test_edge_list_counts_drops(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 0\n1 1\n0 1\n0 2\n")
    result = load_edge_list(path)
    assert result.self_loops_dropped == 1
    assert result.duplicates_dropped == 2  # "1 0" and the second "0 1"
    assert result.graph.edge_count == 2


def test_edge_list_id_map_keeps_isolated_nodes(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    ids = np.array([0, 1, 2])  # node 2 has no edges
    result = load_edge_list(path, ids=ids)
    assert result.graph.node_count == 3
    assert result.ids is ids


def test_edge_list_errors(tmp_path):
    empty = tmp_path / "empty.edges"
    empty.write_text("# nothing\n")
    with pytest.raises(EmptyGraph):
        load_edge_list(empty)

    one_col = tmp_path / "one.edges"
    one_col.write_text("0\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(one_col)
    assert err.value.line == 1

    alpha = tmp_path / "alpha.edges"
    alpha.write_text("a b\n")
    with pytest.raises(ParseError):
        load_edge_list(alpha)

    missing = tmp_path / "missing.edges"
    missing.write_text("0 1\n1 5\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(missing, ids=np.array([0, 1]))
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        load_edge_list(missing, ids=np.array(["0", "1"]))  # ids must be ints
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        load_edge_list(missing, ids=np.array([], dtype=np.int64))
    assert err.value.line == 1

    with pytest.raises(FileNotFoundError, match="No such file or directory"):
        load_edge_list(tmp_path / "absent.edges")


def test_edge_list_id_beyond_int64_is_a_parse_error(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text("0 1\n99999999999999999999 1\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(path)
    assert err.value.line == 2
    assert err.value.path == str(path)


# Edge-list texts for the differential test against the per-line oracle.
# Separators include \r and \r\n, which end the line in text mode, and
# \x0b, \x0c, \xa0 and \x1c, which str.split() treats as whitespace.
_SEPARATORS = [" ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\xa0", "\x1c"]
_COMMON_IDS = [0, 1, 2, 3, 7, 10, 1000]
_ODD_IDS = [-4, 2**40 + 3, 2**63 - 1, 2**63]
_NON_NUMERIC = ["a", "1.5", "nan", "0x1f", "--1", "\u200b1"]
_ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


@st.composite
def _id_token(draw):
    if draw(st.integers(0, 39)) == 0:
        return draw(st.sampled_from(_NON_NUMERIC))
    node = draw(st.sampled_from(_ODD_IDS if draw(st.integers(0, 5)) == 0 else _COMMON_IDS))
    digits = "0" * draw(st.integers(0, 2)) + str(abs(node))
    spelling = draw(st.integers(0, 39))
    if spelling == 0 and len(digits) > 1:
        digits = digits[0] + "_" + digits[1:]  # int() accepts, numpy does not
    elif spelling == 1:
        digits = digits.translate(_ARABIC_INDIC)
    if node < 0:
        return "-" + digits
    return draw(st.sampled_from(["", "+", "-"] if node == 0 else ["", "+"])) + digits


@st.composite
def _edge_list_text(draw):
    separators = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=1, unique=True))
    if draw(st.integers(0, 3)):
        # Most texts keep each edge on one line, so most of them parse.
        separators = [s for s in separators if "\r" not in s] or [" "]

    def sep():
        return "".join(draw(st.lists(st.sampled_from(separators), min_size=1, max_size=2)))

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 19))
        if kind < 2:
            line = draw(st.sampled_from(["", " ", "\t"])) + "# note 1 2"
        elif kind < 4:
            line = draw(st.sampled_from(["", " ", "\xa0"]))
        elif kind == 4:
            line = draw(_id_token())
        else:
            line = draw(_id_token()) + sep() + draw(_id_token())
            for _ in range(draw(st.integers(0, 2))):
                line += sep() + draw(st.sampled_from(["0.75", "w", "3", "#x"]))
            if draw(st.booleans()):
                line += draw(st.sampled_from(["#", " # ", "\t#"])) + "tail 5 6"
        lines.append(line + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    bom = "\ufeff" if draw(st.integers(0, 9)) == 0 else ""
    return bom + "".join(lines)


@st.composite
def _maybe_id_map(draw):
    if draw(st.booleans()):
        return None
    keys = _COMMON_IDS + draw(st.lists(st.sampled_from(_ODD_IDS), unique=True))
    if draw(st.booleans()):
        keys.remove(draw(st.sampled_from(keys)))
    rows = draw(st.permutations(range(len(keys))))
    return dict(zip(keys, rows))


def _written_id_map(path, id_map):
    """``id_map`` as :func:`load_id_map` reads it back from a JSON file."""
    path.write_text(json.dumps({str(key): row for key, row in id_map.items()}))
    return load_id_map(path)


def _library_outcome(path, id_map):
    """The loader's outcome on ``path``, with ``id_map`` passed through a
    JSON file beside it and :func:`load_id_map`."""
    ids = None if id_map is None else _written_id_map(path.with_name("ids.json"), id_map)
    try:
        result = load_edge_list(path, ids=ids)
    except ParseError as err:
        return ("parse", err.line)
    except EmptyGraph:
        return ("empty", None)
    if ids is None:
        assert result.ids.dtype == np.int64
    else:
        assert result.ids is ids
    return (
        result.graph.edges.tolist(),
        dict(zip(result.ids.tolist(), range(result.ids.size))),
        result.graph.node_count,
        result.self_loops_dropped,
        result.duplicates_dropped,
    )


def _oracle_outcome(path, id_map):
    try:
        edges, ids, n_self, n_dup = oracles.edge_list_brute(path, id_map)
    except oracles.EdgeListRejected as err:
        return (err.kind, err.line)
    return (edges, ids, len(ids), n_self, n_dup)


@settings(max_examples=300, deadline=None)
@given(text=_edge_list_text(), id_map=_maybe_id_map())
@example(text="0 1\n-4 1\n", id_map=None)
@example(text="1_000 7\n\u0663 1\n", id_map=None)
# 2**63 does not fit in int64, so the ids are an object array, which only
# the rescan compares exactly: numpy compares uint64 with int64 as float64,
# where 2**63 - 1 and 2**63 are equal.
@example(text="0 1\n9223372036854775807 1\n", id_map={0: 0, 1: 1, 2**63: 2})
def test_edge_list_matches_per_line_oracle(text, id_map):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_bytes(text.encode("utf-8"))
        assert _library_outcome(path, id_map) == _oracle_outcome(path, id_map)


_SPREAD = fileio_mod._DENSE_ID_SPREAD


@st.composite
def _id_keys(draw):
    """Distinct id-map keys on either side of the dense-table cutoff."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["permutation", "gaps", "negative", "near 2**63"]))
    if kind == "permutation":
        return list(range(n))
    if kind == "gaps":
        # The largest key just below, at or just past _SPREAD * n.
        top = _SPREAD * n + draw(st.integers(-2, 1))
        rest = draw(st.lists(st.integers(0, top - 1), min_size=n - 1, max_size=n - 1, unique=True))
        return rest + [top]
    if kind == "negative":
        return draw(st.lists(st.integers(-3 * n, 3 * n), min_size=n, max_size=n, unique=True)
                    .filter(lambda keys: min(keys) < 0))
    return draw(st.lists(st.integers(2**63 - 4 * n, 2**63 - 1), min_size=n, max_size=n,
                         unique=True))


@st.composite
def _id_lookup_case(draw):
    """An id map and pairs of its ids: all of them, then maybe one unmapped."""
    keys = draw(_id_keys())
    rows = draw(st.permutations(range(len(keys))))
    ids = keys + draw(st.lists(st.sampled_from(keys), max_size=30))
    ids = draw(st.permutations(ids))
    if draw(st.booleans()):
        present = set(keys)
        gaps = [k for k in range(max(min(keys), 0), max(keys)) if k not in present][:3]
        unmapped = draw(st.sampled_from(
            [-1, max(keys) + 1, min(keys) - 1, *gaps] if max(keys) < 2**63 - 1 else [-1, *gaps]))
        assume(unmapped not in keys)
        ids[draw(st.integers(0, len(ids) - 1))] = unmapped
    if len(ids) % 2:
        ids.append(keys[0])
    return dict(zip(keys, rows)), ids


@settings(max_examples=300, deadline=None)
@given(case=_id_lookup_case())
# A dense map and an id in its gap, below its keys, and past its largest key.
@example(case=({0: 2, 1: 0, 3: 1}, [0, 1, 2, 3]))
@example(case=({0: 2, 1: 0, 3: 1}, [0, 1, -1, 3]))
@example(case=({0: 2, 1: 0, 3: 1}, [0, 1, 4, 3]))
def test_dense_id_table_matches_binary_search(case):
    id_map, ids = case
    pairs = np.array(ids, dtype=np.int64).reshape(-1, 2)
    text = "# ids\n" + "".join(f"{a} {b}\n" for a, b in zip(ids[::2], ids[1::2]))
    with tempfile.TemporaryDirectory() as tmp:
        row_ids = _written_id_map(Path(tmp) / "ids.json", id_map)
        dense = fileio_mod._lookup_ids(pairs.copy(), row_ids)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio_mod, "_DENSE_ID_SPREAD", 0)
            searched = fileio_mod._lookup_ids(pairs.copy(), row_ids)
        if all(i in id_map for i in ids):
            expected = np.array([id_map[i] for i in ids]).reshape(-1, 2)
            assert np.array_equal(dense, expected) and np.array_equal(searched, expected)
        else:
            assert dense is None and searched is None
        # Through the loader: an unmapped id is the oracle's ParseError line.
        path = Path(tmp) / "g.edges"
        path.write_text(text)
        assert _library_outcome(path, id_map) == _oracle_outcome(path, id_map)


@st.composite
def _rank_case(draw):
    """Non-negative int64 ids, an even number of them, on either side of
    the span _rank_ids packs beside a position."""
    size = 2 * draw(st.integers(1, 40))
    room = 1 << (63 - (size - 1).bit_length())
    kind = draw(st.sampled_from(["below 2**40", "span", "near 2**63", "few"]))
    if kind == "below 2**40":
        ids = draw(st.lists(st.integers(0, 2**40 - 1), min_size=size, max_size=size))
    elif kind == "span":
        # The widest span that is packed, or the narrowest that is not.
        span = room - draw(st.integers(0, 1))
        low = draw(st.integers(0, 2**63 - 1 - span))
        ids = [low, low + span] + draw(st.lists(st.integers(low, low + span),
                                                min_size=size - 2, max_size=size - 2))
    elif kind == "near 2**63":
        ids = draw(st.lists(st.integers(2**63 - 4 * size, 2**63 - 1),
                            min_size=size, max_size=size))
    else:  # one, two or three distinct ids
        distinct = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1,
                                 max_size=min(3, size), unique=True))
        ids = distinct + draw(st.lists(st.sampled_from(distinct), min_size=size - len(distinct),
                                       max_size=size - len(distinct)))
    return np.array(draw(st.permutations(ids)), dtype=np.int64).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(pairs=_rank_case())
@example(pairs=np.array([[7, 7]]))
@example(pairs=np.array([[0, 2**62 - 1]]))  # span 2**62 - 1: packed
@example(pairs=np.array([[0, 2**62]]))  # span 2**62: argsort
@example(pairs=np.array([[2**63 - 1, 2**63 - 2], [2**63 - 1, 2**63 - 3]]))
@example(pairs=np.array([[0, 2**63 - 1], [5, 0]]))
def test_rank_ids_matches_unique(pairs):
    flat = pairs.ravel()
    expected_ids, expected_ranks = np.unique(flat, return_inverse=True)
    room = 1 << (63 - (flat.size - 1).bit_length())
    calls, original = [], np.argsort

    def argsort(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Runs of equal ids cross the boundaries of chunks of 1, 3 and the
    # default count of ids; the ranks and ids do not depend on them.
    for chunk in (1, 3, core_mod._SPAN_ELEMENTS):
        calls.clear()
        ranked = pairs.copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio_mod.np, "argsort", argsort)
            mp.setattr(core_mod, "_SPAN_ELEMENTS", chunk)
            ids = fileio_mod._rank_ids(ranked)
        assert ids.dtype == np.int64 and np.array_equal(ids, expected_ids)
        assert np.array_equal(ranked, expected_ranks.reshape(pairs.shape))
        # The ids alone pick the branch: argsort only when their span leaves no room.
        assert bool(calls) == (int(flat.max()) - int(flat.min()) >= room)


@pytest.mark.parametrize("spread", [_SPREAD, 0])
@pytest.mark.parametrize("ids, twice", [
    ([0, 1, 2, 1], 1),  # dense at the default spread
    ([-5, 40, 7, -5], -5),  # binary search at any spread
    ([0, 1, 2**64, 2**64], 2**64),  # the rescan
])
def test_repeated_caller_id_is_not_a_bijection(tmp_path, monkeypatch, spread, ids, twice):
    # A dict or a table would keep one row of a repeated id and drop the other.
    monkeypatch.setattr(fileio_mod, "_DENSE_ID_SPREAD", spread)
    path = tmp_path / "g.edges"
    path.write_text(f"{ids[0]} {ids[1]}\n")
    with pytest.raises(NotABijection, match=f"id {twice} twice"):
        load_edge_list(path, ids=np.array(ids, dtype=object if twice == 2**64 else np.int64))


@pytest.mark.parametrize("id_map", [{0: 1, 1: 0}, {5: 0, 2**40: 1}, {-2: 0, 3: 1}])
def test_comments_only_edge_list_with_id_map_is_empty_graph(tmp_path, id_map):
    path = tmp_path / "g.edges"
    path.write_text("# no edges\n\n# at all\n")
    with pytest.raises(EmptyGraph):
        load_edge_list(path, ids=_written_id_map(tmp_path / "ids.json", id_map))


@pytest.mark.parametrize("size", [0, 1, _HASH_BUFFER - 1, _HASH_BUFFER, _HASH_BUFFER + 1,
                                  3 * _HASH_BUFFER + 7])
def test_sha256_file_matches_hashlib(tmp_path, size):
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_sha256_file_stops_at_the_next_read(tmp_path):
    class SetOnSecondCheck:
        checks = 0

        def is_set(self):
            self.checks += 1
            return self.checks > 1

    path = tmp_path / "blob"
    path.write_bytes(bytes(3 * _HASH_BUFFER + 7))
    stop = SetOnSecondCheck()
    assert sha256_file(path, stop=stop) is None
    assert stop.checks == 2


_CHUNK_EDGES = core_mod._SPAN_ELEMENTS // 2


@settings(max_examples=40, deadline=None)
@given(
    count=st.sampled_from(
        [0, 1, 2, _CHUNK_EDGES - 1, _CHUNK_EDGES, _CHUNK_EDGES + 1, 3 * _CHUNK_EDGES + 7]
    ),
    top=st.sampled_from([999, 1000, 2**16, 2**31, 2**62]),
    comment=st.none() | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(count=_CHUNK_EDGES + 1, top=2**62, comment="x", seed=0)
def test_save_edge_list_matches_per_edge_oracle(count, top, comment, seed):
    # Exactly ``count`` distinct edges, so that every count meets its chunk
    # boundary; canonical already, so ids up to 2**62 need no from_pairs.
    rng = np.random.default_rng(seed)
    edges = {(0, top)} if count else set()  # the widest id, whenever there is a row
    while len(edges) < count:
        for i, j in np.sort(rng.integers(0, top, size=(count, 2), endpoint=True), axis=1).tolist():
            if i < j and len(edges) < count:
                edges.add((i, j))
    graph = GraphTopology(top + 1, sorted(edges))
    assert graph.edge_count == count
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        save_edge_list(path, graph, comment=comment)
        expected = oracles.edge_list_text_brute(graph.edges, comment)
        assert path.read_bytes() == expected.encode("utf-8")


def test_save_edge_list_round_trips(tmp_path):
    graph = random_graph(25, 4.0, 3)
    path = tmp_path / "g.edges"
    save_edge_list(path, graph, comment="round trip")
    back = load_edge_list(path, ids=np.arange(25))
    assert np.array_equal(back.graph.edges, graph.edges)
    assert back.graph.node_count == 25


@settings(max_examples=200, deadline=None)
@given(comment=st.none() | st.text(
    # Line breaks, and characters str.splitlines() takes for one but the readers do not.
    st.sampled_from("\r\n\t\x0b\x0c\x1c\x85\u2028 #5")
    | st.characters(blacklist_categories=("Cs",)),
    max_size=12,
))
@example(comment="a\nb")
@example(comment="a\rb")
@example(comment="a\r\n\nb\r")
@example(comment="\n")
def test_save_edge_list_round_trips_any_comment(comment):
    # Every line of the comment needs its own "#": a bare "b" line after
    # "# a" is refused as one column.
    graph = GraphTopology(4, [(0, 1), (1, 3)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        save_edge_list(path, graph, comment=comment)
        back = load_edge_list(path, ids=np.arange(4))
    assert np.array_equal(back.graph.edges, graph.edges)


# Each power of ten and the value below it, from 0 and 1 to 10**18, and the int64 maximum.
_DECIMAL_TOPS = [10**k - d for k in range(19) for d in (1, 0)] + [2**63 - 1]


@st.composite
def _decimal_case(draw):
    """A non-negative (R, C) int64 array whose column maxima lie on digit
    boundaries, and C + 1 parts, some empty."""
    count, cols = draw(st.integers(0, 3000)), draw(st.integers(1, 3))
    tops = [draw(st.sampled_from(_DECIMAL_TOPS)) for _ in range(cols)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    # A random right shift spreads the values over every digit count below the top.
    columns = np.stack([rng.integers(0, top, count, endpoint=True) >> rng.integers(0, 64, count)
                        for top in tops], axis=1)
    if count:
        columns[rng.integers(count, size=cols), np.arange(cols)] = tops
    parts = draw(st.lists(st.binary(max_size=6), min_size=cols + 1, max_size=cols + 1))
    return columns, tuple(parts)


@settings(max_examples=150, deadline=None)
@given(case=_decimal_case())
@example(case=(np.empty((0, 2), dtype=np.int64), (b"a", b" ", b"\n")))
@example(case=(np.array([[0, 9, 10], [2**63 - 1, 10**18, 0]]), (b"", b"", b"", b"")))
def test_decimal_lines_matches_percent_d(case):
    columns, parts = case
    expected = b"".join(
        parts[0] + b"".join(b"%d" % value + part for value, part in zip(row, parts[1:]))
        for row in columns.tolist()
    )
    assert _decimal_lines(columns, parts) == expected


@pytest.mark.parametrize("count", [1, 2, 5, 6, 9, 10, 11, 14, 9999, 10_000, 10_001])
def test_identity_id_map_matches_f_strings(tmp_path, count):
    # The entries after the first go out a span at a time: at spans of 8
    # ids (4 entries), 1 and 2 nodes write none or part of one, 5 exactly
    # one, 6 one plus one entry, and 9 and up several.
    path = tmp_path / "ids.json"
    for span in (8, core_mod._SPAN_ELEMENTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_mod, "_SPAN_ELEMENTS", span)
            _save_identity_id_map(path, count)
        assert path.read_bytes() == oracles.id_map_text_brute(count).encode()
    assert np.array_equal(load_id_map(path), np.arange(count))


def test_identity_id_map_holds_one_span(tmp_path):
    # 600k nodes, about 18 spans: the whole-map write peaked at about 120
    # bytes per node (72 MB here); a span at a time holds one span's text
    # and temporaries, whatever the node count.
    path = tmp_path / "ids.json"
    fileio_mod._group_tables()  # built once per process, outside the trace
    tracemalloc.start()
    try:
        _save_identity_id_map(path, 600_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * core_mod._SPAN_ELEMENTS, peak
    assert path.read_bytes() == oracles.id_map_text_brute(600_000).encode()


def test_id_map_must_be_bijection(tmp_path):
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"0": 0, "1": 0, "2": 1}))
    with pytest.raises(NotABijection):
        load_id_map(path)
    path.write_text(json.dumps({"0": 0, "1": 2}))  # gap
    with pytest.raises(NotABijection):
        load_id_map(path)
    path.write_text(json.dumps({"0": 0, "1": 1}))
    assert load_id_map(path).tolist() == [0, 1]
    path.write_text(json.dumps({"0": "1", "1": 0}))  # integer strings still load
    assert load_id_map(path).tolist() == [1, 0]


# Keys in and past int64, each in several spellings int() accepts.
_MAP_KEYS = [0, 1, 7, 10, -3, -2**63, 2**63 - 1, 2**63, 2**64]
# Rows that are not an int in int64.
_ODD_ROWS = [True, False, 1.5, None, [0], 2**63, -2**63 - 1]


@st.composite
def _id_map_text(draw):
    """An id-map JSON text; some spell one id twice, break the rows, or
    hold a key or row that is not an integer."""
    keys = draw(st.lists(st.sampled_from(_MAP_KEYS) | st.integers(-10**6, 10**6),
                         min_size=1, max_size=10, unique=True))
    rows = draw(st.permutations(range(len(keys))))
    if draw(st.integers(0, 4)) == 0:
        rows[0] = draw(st.sampled_from([len(keys), -1, rows[-1], 2**64]))
    if draw(st.integers(0, 4)) == 0:
        keys.append(draw(st.sampled_from(keys)))
        rows.append(len(rows))
    doc = {}
    for key, row in zip(keys, rows):
        digits = "0" * draw(st.integers(0, 1)) + str(abs(key))
        spelling = draw(st.integers(0, 9))
        if spelling == 0 and len(digits) > 1:
            digits = digits[0] + "_" + digits[1:]
        elif spelling == 1:
            digits = "".join(chr(ord("\u0660") + int(d)) for d in digits)  # Arabic-Indic
        elif spelling == 2:
            digits += draw(st.sampled_from(["x", ".0", "__1"]))  # int() refuses these
        sign = "-" if key < 0 else draw(st.sampled_from(["", "+"]))
        row = draw(st.sampled_from([row, str(row)]))
        if draw(st.integers(0, 9)) == 0:
            row = draw(st.sampled_from(_ODD_ROWS))
        doc[sign + digits] = row
    return json.dumps(doc)


@settings(max_examples=300, deadline=None)
@given(text=_id_map_text())
@example(text='{"9223372036854775807": 0, "+9223372036854775808": "1", "07": 2}')
@example(text='{"18446744073709551616": 1, "-9223372036854775808": 0}')
@example(text='{"7": 0, "+7": 1}')
@example(text='{"0": 1, "1": "0"}')
@example(text='{"0": true, "1": 0}')
@example(text='{"0": 1.5, "1": 0}')
@example(text='{"0": null, "1": 0}')
@example(text='{"0": [0], "1": 1}')
@example(text='{"0": 9223372036854775808, "1": 0}')
@example(text='{"+1": 0, "007": 1, "1_0": 2, "\u0663": 3, "9223372036854775808": 4}')
@example(text='{"+1": 0, "007": 1, "1_0": 2, "\u0663": 3}')
@example(text='{"x": 0}')
def test_id_map_matches_int_oracle(text):
    expected = oracles.id_map_brute(json.loads(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.json"
        path.write_text(text)
        try:
            ids = load_id_map(path)
        except NotABijection as err:
            assert expected == ("twice" if "twice" in str(err) else "rows")
            return
        except ParseError as err:
            assert expected == "entry"
            assert "id map entries must be integers" in str(err)
            return
    assert ids.dtype == (np.int64 if all(-2**63 <= i < 2**63 for i in expected) else object)
    assert dict(zip(ids.tolist(), range(ids.size))) == expected


def test_id_map_holds_only_its_ids(tmp_path):
    # A dict of 100k Python ints held 10.8 MB after the map loaded.
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({str(i): i for i in range(100_000)}))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ids = load_id_map(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2 * ids.nbytes
    assert np.array_equal(ids, np.arange(100_000))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.permutations(range(6)),
    slot=st.integers(min_value=0, max_value=5),
    bad=st.one_of(st.booleans(), st.floats()),
)
def test_id_map_rejects_float_and_bool_rows(rows, slot, bad):
    # int() would read 1.9 as row 1 and false as row 0, so a map such as
    # {"10": false, "20": 1.9, "30": 2.5, "40": 3} used to load.
    doc = {str(10 * key): row for key, row in enumerate(rows)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.json"
        path.write_text(json.dumps(doc))
        assert sorted(load_id_map(path).tolist()) == [10 * key for key in range(6)]
        doc[str(10 * slot)] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"'{10 * slot}'"):
            load_id_map(path)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.permutations(range(6)),
    slot=st.integers(min_value=0, max_value=5),
    prefix=st.sampled_from(["0", "+"]),
)
def test_id_map_rejects_an_id_named_twice(rows, slot, prefix):
    # int() reads "010" and "+10" as 10, so the later key used to replace
    # the earlier one and the map loaded with an entry gone.
    doc = {str(10 * key): row for key, row in enumerate(rows)}
    doc[prefix + str(10 * slot)] = rows[slot]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ids.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(NotABijection, match=f"id {10 * slot} twice") as err:
            load_id_map(path)
        assert err.value.path == str(path)


def test_manifest_round_trip(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n")
    a = tmp_path / "a.gge1"
    b = tmp_path / "b.gge1"
    save_embeddings(a, np.zeros((2, 2)))
    save_embeddings(b, np.zeros((2, 2)))
    manifest_path = tmp_path / "manifest.json"
    save_manifest(manifest_path, graph, [a, b], labels=["run-a", "run-b"],
                  extra={"note": "kept"})
    manifest = load_manifest(manifest_path)
    assert manifest.graph_path == graph
    assert manifest.embedding_paths == (a, b)
    assert manifest.labels == ("run-a", "run-b")
    assert json.loads(manifest_path.read_text())["note"] == "kept"  # written, then ignored


def test_manifest_keeps_a_path_outside_its_directory(tmp_path):
    # An embedding beside the manifest's directory is not below it, so it
    # is stored as given.
    (tmp_path / "m").mkdir()
    graph = tmp_path / "m" / "g.edges"
    inside = tmp_path / "m" / "a.gge1"
    outside = tmp_path / "b.gge1"
    manifest_path = tmp_path / "m" / "manifest.json"
    save_manifest(manifest_path, graph, [inside, outside])
    doc = json.loads(manifest_path.read_text())
    assert doc["embedding_paths"] == ["a.gge1", str(outside)]
    assert load_manifest(manifest_path).embedding_paths == (inside, outside)


def test_unknown_embedding_format_writes_nothing(tmp_path):
    path = tmp_path / "m.npy"
    with pytest.raises(ValueError, match="unknown format 'npy'"):
        save_embeddings(path, np.zeros((2, 2)), fmt="npy")
    assert not path.exists()


def test_manifest_labels_default_to_stems(tmp_path):
    manifest_path = tmp_path / "m.json"
    manifest_path.write_text(json.dumps({
        "graph_path": "g.edges",
        "embedding_paths": ["x/run1.gge1", "x/run2.gge1"],
    }))
    manifest = load_manifest(manifest_path)
    assert manifest.labels == ("run1", "run2")


def test_manifest_errors(tmp_path):
    path = tmp_path / "m.json"

    path.write_text("not json")
    with pytest.raises(ManifestError):
        load_manifest(path)

    path.write_text(json.dumps({"embedding_paths": ["a", "b"]}))
    with pytest.raises(ManifestError):
        load_manifest(path)

    path.write_text(json.dumps({"graph_path": "g", "embedding_paths": ["a"]}))
    with pytest.raises(ManifestError):
        load_manifest(path)

    path.write_text(json.dumps({"graph_path": "g", "embedding_paths": ["a", "a"]}))
    with pytest.raises(ManifestError):
        load_manifest(path)

    # Two spellings of one file are not distinct configurations.
    path.write_text(json.dumps({"graph_path": "g", "embedding_paths": ["a", "./a"]}))
    with pytest.raises(ManifestError):
        load_manifest(path)

    path.write_text(json.dumps({
        "graph_path": "g", "embedding_paths": ["a", "b"], "labels": ["only-one"],
    }))
    with pytest.raises(ManifestError):
        load_manifest(path)

    # Fields of the wrong JSON type are manifest errors, not TypeErrors.
    for doc in (
        {"graph_path": "g", "embedding_paths": [1, 2]},
        {"graph_path": 7, "embedding_paths": ["a", "b"]},
        {"graph_path": "g", "embedding_paths": ["a", "b"], "node_id_map": 3},
        {"graph_path": "g", "embedding_paths": ["a", "b"], "labels": 5},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError):
            load_manifest(path)


def test_report_json_is_deterministic():
    doc = {"b": 1, "a": [1.5, 2.25], "nested": {"z": True, "y": None}}
    assert report_to_json(doc) == report_to_json(json.loads(report_to_json(doc)))
    assert report_to_json(doc).endswith("\n")
