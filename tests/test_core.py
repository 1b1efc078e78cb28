"""Data types: validation, canonicalization, preprocessing."""

import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gramstab import (
    GraphTopology,
    NonFiniteInput,
    NonFiniteScore,
    ShapeMismatch,
    TooFewConfigs,
    center_normalize_inplace,
    validate_ensemble,
)
import gramstab.core as core_mod
from gramstab.core import _KEY_NODES, _canonical_keys, _split_keys, matrix_values

import oracles


def test_embedding_matrix_accepts_finite_2d():
    values = np.arange(6, dtype=np.float64).reshape(3, 2)
    assert matrix_values(values) is values  # a float64 array is not copied
    listed = matrix_values([[0, 1], [2, 3], [4, 5]])
    assert listed.dtype == np.float64 and np.array_equal(listed, values)


def test_embedding_matrix_rejects_nan_and_inf():
    with pytest.raises(NonFiniteInput):
        matrix_values(np.array([[1.0, np.nan]]))
    with pytest.raises(NonFiniteInput):
        matrix_values([[np.inf, 0.0]])


def test_embedding_matrix_rejects_wrong_rank():
    with pytest.raises(ShapeMismatch, match="2-D"):
        matrix_values(np.zeros(4))
    with pytest.raises(ShapeMismatch, match="2-D"):
        matrix_values(np.zeros((2, 2, 2)))
    with pytest.raises(ShapeMismatch, match="at least 1x1"):
        matrix_values(np.zeros((0, 3)))


def test_graph_canonicalizes_and_counts_drops():
    pairs = np.array([[1, 0], [0, 1], [2, 2], [0, 2], [2, 0], [1, 2]])
    graph, n_self, n_dup = GraphTopology.from_pairs(3, pairs)
    assert n_self == 1
    assert n_dup == 2
    assert graph.edge_count == 3
    # canonical: i < j, sorted lexicographically, unique
    assert graph.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_graph_rejects_out_of_range_nodes():
    with pytest.raises(ShapeMismatch):
        GraphTopology.from_pairs(3, np.array([[0, 3]]))
    with pytest.raises(ShapeMismatch):
        GraphTopology.from_pairs(3, np.array([[-1, 1]]))


def test_graph_constructor_requires_canonical_edges():
    with pytest.raises(ShapeMismatch):
        GraphTopology(3, np.array([[1, 0]]))  # not i < j
    with pytest.raises(ShapeMismatch):
        GraphTopology(3, np.array([[0, 1], [0, 1]]))  # duplicate


@st.composite
def _raw_pairs(draw):
    """A node count up to 2^62 and pairs over a few of its ids, the
    largest included, so that reversed pairs, duplicates and self-loops
    are common."""
    node_count = draw(st.one_of(
        st.integers(min_value=1, max_value=_KEY_NODES),
        st.integers(min_value=_KEY_NODES + 1, max_value=2**62),
        st.sampled_from([_KEY_NODES, _KEY_NODES + 1]),
    ))
    ids = st.integers(min_value=0, max_value=node_count - 1)
    pool = draw(st.lists(ids, min_size=1, max_size=5)) + [node_count - 1]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=25))
    return node_count, pairs


@settings(max_examples=200, deadline=None)
@given(case=_raw_pairs())
@example(case=(2**31, [(2**30, 2**30 + 1), (1, 2), (2**31 - 1, 0), (3, 3)]))
@example(case=(2**40, [(2**39, 2**39 + 1), (1, 2)]))
def test_from_pairs_matches_the_brute_canonicalizer(case):
    # Keys i * node_count + j overflow int64 past _KEY_NODES (about 3e9
    # nodes): from_pairs refuses those counts by name, and the
    # constructor's order check compares rows, so it holds for any count.
    node_count, pairs = case
    edges, self_loops, duplicates = oracles.canonical_edges_brute(pairs)
    if node_count <= _KEY_NODES:
        graph, n_self, n_dup = GraphTopology.from_pairs(node_count, np.array(pairs, dtype=np.int64))
        assert (graph.edges.tolist(), n_self, n_dup) == (edges, self_loops, duplicates)
    else:
        with pytest.raises(ShapeMismatch, match="node_count must be <="):
            GraphTopology.from_pairs(node_count, np.array(pairs, dtype=np.int64))
    assert GraphTopology(node_count, edges).edges.tolist() == edges
    if len(edges) > 1:
        with pytest.raises(ShapeMismatch, match="unique and sorted"):
            GraphTopology(node_count, edges[::-1])
        with pytest.raises(ShapeMismatch, match="unique and sorted"):
            GraphTopology(node_count, [edges[0], *edges])


def test_from_pairs_peaks_under_twice_its_input():
    # 400k pairs with self-loops, duplicates and reversed pairs: the keys are
    # built and deduplicated in arrays from_pairs owns, then split into the
    # edge columns, so the temporaries stay under two copies of the input.
    rng = np.random.default_rng(12)
    pairs = rng.integers(0, 30_000, size=(400_000, 2))
    pairs[::50, 1] = pairs[::50, 0]
    pairs[1::7] = pairs[::7, ::-1][: pairs[1::7].shape[0]]
    edges, self_loops, duplicates = oracles.canonical_edges_brute(pairs[:20_000].tolist())
    tracemalloc.start()
    try:
        graph, n_self, n_dup = GraphTopology.from_pairs(30_000, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_self >= 8_000 and n_dup >= 50_000
    assert n_self + n_dup + graph.edge_count == pairs.shape[0]
    assert peak < 2 * pairs.nbytes, (peak, pairs.nbytes)
    head = GraphTopology.from_pairs(30_000, pairs[:20_000])
    assert (head[0].edges.tolist(), head[1], head[2]) == (edges, self_loops, duplicates)


def test_center_normalize_matches_dense_oracle():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(20, 5))
    work = values.copy()
    n_deg = center_normalize_inplace(work)
    assert n_deg == 0
    np.testing.assert_allclose(work, oracles.center_normalize_dense(values), atol=1e-14)


def test_center_normalize_zeroes_degenerate_rows():
    # A constant matrix centers to exactly zero everywhere.
    values = np.full((6, 3), 2.5)
    assert center_normalize_inplace(values) == 6
    assert np.all(values == 0.0)


@pytest.mark.parametrize("shape", [(4,), (0, 3), (3, 0), (2, 2, 2)])
def test_center_normalize_names_a_malformed_shape(shape):
    # Not an IndexError, ZeroDivisionError or numpy warning: the named error
    # matrix_values raises for the same shape.
    with pytest.raises(ShapeMismatch, match="^config 1: ") as err:
        center_normalize_inplace(np.zeros(shape), 1)
    assert err.value.config_index == 1


@pytest.mark.parametrize("scale", [10.0**e for e in range(-300, 301, 50)])
def test_degenerate_rows_are_relative_to_the_configuration(scale):
    # A constant configuration centers to rounding error at every scale;
    # a row equal to the column mean does too, alone among random rows.
    # Absolute thresholds miss both: at 1e16 the rounding error is above
    # 1e-15, at 1e-16 every row is below it.
    constant = np.full((6, 3), 2.5 * scale)
    assert center_normalize_inplace(constant.copy()) == 6
    rng = np.random.default_rng(9)
    values = rng.normal(size=(20, 5))
    values[7] = np.delete(values, 7, axis=0).mean(axis=0)
    values *= scale
    work = values.copy()
    assert center_normalize_inplace(work) == 1
    assert not work[7].any()
    np.testing.assert_allclose(work, oracles.center_normalize_dense(values), atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=30),
    cols=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_center_normalize_properties(rows, cols, seed):
    rng = np.random.default_rng(seed)
    work = rng.normal(size=(rows, cols))
    center_normalize_inplace(work)
    # Rows are unit length or exactly zero; that is the whole contract.
    norms = np.linalg.norm(work, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


_HUGE_COLUMN = np.random.default_rng(3).normal(size=(50, 4))
_HUGE_COLUMN[:, 0] = 1.7e308


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    config_index=st.integers(min_value=0, max_value=9),
)
@example(values=_HUGE_COLUMN, config_index=0)
@example(values=-_HUGE_COLUMN, config_index=3)
@example(values=np.array([[1.7e308, 0.0], [-1.7e308, 1.0], [-1.7e308, 2.0]]), config_index=1)
def test_center_normalize_never_leaves_non_finite_values(values, config_index):
    # Any finite input is centered and normalized, or refused by name:
    # no NaN or inf is ever left for a caller to score.
    work = values.copy()
    try:
        center_normalize_inplace(work, config_index)
    except NonFiniteScore as exc:
        assert exc.config_index == config_index
        assert str(exc).startswith(f"config {config_index}: centered values are not finite")
        return
    assert np.isfinite(work).all()
    norms = np.linalg.norm(work, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


@settings(max_examples=100, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6),
    ),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.tuples(st.integers(0, 11), st.integers(0, 5)),
    config_index=st.integers(min_value=0, max_value=9),
)
def test_center_normalize_names_non_finite_input_and_writes_nothing(
    values, bad, where, config_index
):
    # A NaN or inf entry is the input's fault, not an overflow, and is
    # refused before a single entry is written.
    values[where[0] % values.shape[0], where[1] % values.shape[1]] = bad
    work = values.copy()
    with pytest.raises(NonFiniteInput) as info:
        center_normalize_inplace(work, config_index)
    assert info.value.config_index == config_index
    assert str(info.value) == f"config {config_index}: matrix contains NaN or infinite values"
    assert work.tobytes() == values.tobytes()


@pytest.mark.parametrize("reported, spans", [
    (None, [(0, 30, True)]),
    (3, [(0, 10, True), (10, 20, False), (20, 30, False)]),
])
def test_cpu_count_without_affinity(monkeypatch, reported, spans):
    # Where the OS has no affinity call, the CPU count stands in; a count
    # it cannot tell is one CPU, and the work runs inline.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: reported)
    assert core_mod._cpu_count() == len(spans)
    caller = threading.current_thread()
    ran = []
    core_mod._over_spans(
        30, lambda lo, hi: ran.append((lo, hi, threading.current_thread() is caller)), 10
    )
    assert sorted(ran) == spans


def test_validate_ensemble_checks_graph_rows():
    graph = GraphTopology.from_pairs(4, np.array([[0, 1], [2, 3]]))[0]
    good = [np.ones((4, 2)), np.ones((4, 3))]
    assert validate_ensemble(good, graph) == (2, 3)
    # A lazy iterable of plain arrays is checked the same way.
    assert validate_ensemble(iter([np.ones((4, 2)), np.ones((4, 3))]), graph) == (2, 3)

    with pytest.raises(ShapeMismatch):
        validate_ensemble([np.ones((5, 2)), np.ones((5, 2))], graph)
    with pytest.raises(ShapeMismatch, match="config 1 has 3 rows") as info:
        validate_ensemble(iter([np.ones((4, 2)), np.ones((3, 2))]), graph)
    assert info.value.config_index == 1
    with pytest.raises(NonFiniteInput, match="^config 1: matrix contains NaN") as info:
        validate_ensemble([np.ones((4, 2)), np.full((4, 2), np.nan)], graph)
    assert info.value.config_index == 1
    with pytest.raises(ShapeMismatch, match="^config 2: expected a 2-D matrix") as info:
        validate_ensemble([np.ones((4, 2)), np.ones((4, 2)), np.ones(4)], graph)
    assert info.value.config_index == 2
    with pytest.raises(TooFewConfigs):
        validate_ensemble(iter([np.ones((4, 2))]), graph)


@st.composite
def _keyed_pairs(draw):
    """A node count up to ``_KEY_NODES``, raw pairs over a few of its ids
    (the largest and 0 included), and sorted distinct prior keys."""
    node_count = draw(st.one_of(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=_KEY_NODES),
        st.just(_KEY_NODES),
    ))
    pool = draw(st.lists(st.integers(0, node_count - 1), max_size=4)) + [0, node_count - 1]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=40))
    prior = draw(st.lists(st.integers(0, node_count * node_count - 1), max_size=10))
    return node_count, pairs, np.unique(np.array(prior, dtype=np.int64))


@settings(max_examples=150, deadline=None)
@given(case=_keyed_pairs())
@example(case=(5, [], np.empty(0, dtype=np.int64)))
@example(case=(5, [(3, 3)] * 4, np.empty(0, dtype=np.int64)))
@example(case=(5, [(1, 4)] * 9, np.array([9], dtype=np.int64)))
def test_canonical_keys_equal_np_unique(case):
    # The in-place keys min * (n - 1) + a + b, with self-loops sorted to the
    # front, are np.unique of min * n + max over the non-loop rows and prior.
    node_count, pairs, prior = case
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    loops = arr[:, 0] == arr[:, 1]
    lo, hi = arr[~loops].min(axis=1), arr[~loops].max(axis=1)
    expected = np.unique(np.concatenate([prior, lo * node_count + hi]))
    for given_prior in ((prior,) if prior.size else (prior, None)):
        keys, n_self = _canonical_keys(node_count, arr.copy(), given_prior)
        assert keys.dtype == np.int64 and np.array_equal(keys, expected)
        assert n_self == int(loops.sum())
    assert _split_keys(expected, node_count).tolist() == [
        [key // node_count, key % node_count] for key in expected.tolist()
    ]
