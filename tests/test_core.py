"""Data types: validation, canonicalization, preprocessing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    GraphTopology,
    NonFiniteInput,
    ShapeMismatch,
    TooFewConfigs,
    center_normalize_inplace,
    validate_ensemble,
)
from gramstab.core import _KEY_NODES, _sorted_unique, matrix_values

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
    with pytest.raises(TooFewConfigs):
        validate_ensemble(iter([np.ones((4, 2))]), graph)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-(2**63), max_value=2**63 - 1),
        ),
        max_size=60,
    )
)
@example([])
@example([5])
@example([7] * 9)
def test_sorted_unique_equals_np_unique(values):
    keys = np.array(values, dtype=np.int64)
    expected = np.unique(keys)
    for got in (_sorted_unique(keys), _sorted_unique(keys.reshape(-1, 1))):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
