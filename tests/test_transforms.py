"""Seeded generators and exact transform application."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    Isometry,
    NodePermutation,
    NotABijection,
    apply_isometry,
    apply_permutation,
    ggi_index,
    perturb_gaussian,
    random_graph,
    random_orthogonal,
    random_permutation,
    random_translation,
    synthetic_ensemble,
)
from gramstab.transforms import TRANSFORM_KINDS

import oracles


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_orthogonal_is_orthogonal(dim, seed):
    q = random_orthogonal(dim, seed).matrix
    np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-12)


def test_generators_are_deterministic_per_seed():
    assert np.array_equal(
        random_orthogonal(5, 42).matrix, random_orthogonal(5, 42).matrix
    )
    assert not np.array_equal(
        random_orthogonal(5, 42).matrix, random_orthogonal(5, 43).matrix
    )
    assert np.array_equal(
        random_permutation(20, 7).mapping, random_permutation(20, 7).mapping
    )
    assert np.array_equal(
        random_translation(4, 3).translation, random_translation(4, 3).translation
    )


def test_isometry_validation():
    with pytest.raises(Exception):
        Isometry(np.ones((2, 2)), np.zeros(2))  # not orthogonal
    with pytest.raises(Exception):
        Isometry(np.eye(2), np.zeros(3))  # translation dim mismatch


def test_isometry_preserves_distances():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(12, 4))
    mapped = apply_isometry(apply_isometry(values, random_orthogonal(4, 6)),
                            random_translation(4, 7))
    from scipy.spatial.distance import pdist

    np.testing.assert_allclose(pdist(values), pdist(mapped), atol=1e-10)


def test_permutation_requires_bijection():
    with pytest.raises(NotABijection):
        NodePermutation(np.array([0, 0, 2]))
    with pytest.raises(NotABijection):
        NodePermutation(np.array([0, 1, 3]))


def test_permutation_inverse_round_trips():
    sigma = random_permutation(15, 9)
    graph = random_graph(15, 3.0, 1)
    rng = np.random.default_rng(2)
    values = rng.normal(size=(15, 3))
    permuted, relabeled = apply_permutation(values, graph, sigma)
    back, graph_back = apply_permutation(permuted, relabeled, sigma.inverse())
    np.testing.assert_array_equal(back, values)
    np.testing.assert_array_equal(graph_back.edges, graph.edges)


def test_permutation_moves_rows_where_edges_go():
    # Row sigma(i) of the permuted matrix is old row i, and edges follow.
    sigma = NodePermutation(np.array([2, 0, 1]))
    values = np.array([[0.0], [1.0], [2.0]])
    graph = random_graph(3, 2.0, 0)
    permuted, relabeled = apply_permutation(values, graph, sigma)
    for old in range(3):
        assert permuted[sigma.mapping[old], 0] == values[old, 0]
    old_pairs = {frozenset(e) for e in graph.edges.tolist()}
    new_pairs = {
        frozenset((int(sigma.mapping[i]), int(sigma.mapping[j])))
        for i, j in graph.edges.tolist()
    }
    assert {frozenset(e) for e in relabeled.edges.tolist()} == new_pairs
    assert len(new_pairs) == len(old_pairs)


def test_perturb_gaussian_seeded_and_zero_noise_exact():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(8, 2))
    a = perturb_gaussian(values, 0.1, seed=5)
    b = perturb_gaussian(values, 0.1, seed=5)
    np.testing.assert_array_equal(a, b)
    c = perturb_gaussian(values, 0.0, seed=5)
    np.testing.assert_array_equal(c, values)
    assert not np.shares_memory(c, values)
    with pytest.raises(ValueError):
        perturb_gaussian(values, -0.1, seed=5)


def test_random_graph_is_simple_and_sized():
    graph = random_graph(100, 6.0, 11)
    assert graph.node_count == 100
    assert graph.edge_count == 300  # round(100 * 6 / 2)
    edges = graph.edges
    assert np.all(edges[:, 0] < edges[:, 1])
    keys = edges[:, 0] * 100 + edges[:, 1]
    assert np.unique(keys).size == keys.size  # no duplicates
    assert np.array_equal(random_graph(100, 6.0, 11).edges, edges)


@settings(max_examples=60, deadline=None)
@given(
    node_count=st.integers(min_value=2, max_value=500),
    degree_share=st.floats(min_value=0.0, max_value=1.2),
    seed=st.integers(min_value=0, max_value=2**32)
    | st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
)
@example(node_count=2, degree_share=1.0, seed=0)
@example(node_count=500, degree_share=1.0, seed=[7, 8])
def test_random_graph_matches_row_masking_oracle(node_count, degree_share, seed):
    # degree_share 1 asks for the complete graph; past it, for more.
    avg_degree = degree_share * (node_count - 1)
    graph = random_graph(node_count, avg_degree, seed)
    assert graph.edges.tolist() == oracles.random_graph_brute(node_count, avg_degree, seed)


def test_random_graph_caps_at_complete_graph():
    graph = random_graph(5, 100.0, 0)
    assert graph.edge_count == 10  # 5 choose 2


def test_synthetic_zero_noise_yields_identical_configs():
    graph = random_graph(30, 4.0, 2)
    configs, _ = synthetic_ensemble(graph, 5, 4, noise=0.0, seed=3)
    for cfg in configs[1:]:
        np.testing.assert_array_equal(cfg, configs[0])


def test_synthetic_zero_noise_configs_share_no_memory():
    graph = random_graph(30, 4.0, 2)
    for kind in TRANSFORM_KINDS:
        configs, _ = synthetic_ensemble(graph, 5, 3, noise=0.0, transform=kind, seed=3)
        for idx, cfg in enumerate(configs):
            # A view would be a view of the base embedding.
            assert type(cfg) is np.ndarray and cfg.dtype == np.float64, kind
            assert cfg.base is None and cfg.flags.writeable, kind
            for other in configs[idx + 1:]:
                assert not np.shares_memory(cfg, other), kind


def test_synthetic_transforms_keep_index_at_zero():
    graph = random_graph(40, 5.0, 4)
    for kind in ("none", "orthogonal", "permutation", "translation"):
        configs, out_graph = synthetic_ensemble(
            graph, 6, 3, noise=0.0, transform=kind, seed=5
        )
        report = ggi_index(configs, out_graph)
        assert abs(report.index_value) <= 1e-12, kind


def test_synthetic_noise_separates_configs():
    graph = random_graph(30, 4.0, 6)
    configs, _ = synthetic_ensemble(graph, 5, 3, noise=0.2, seed=7)
    assert not np.array_equal(configs[0], configs[1])


def test_synthetic_is_deterministic():
    graph = random_graph(20, 3.0, 8)
    a, _ = synthetic_ensemble(graph, 4, 3, noise=0.1, transform="orthogonal", seed=9)
    b, _ = synthetic_ensemble(graph, 4, 3, noise=0.1, transform="orthogonal", seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_synthetic_rejects_unknown_transform():
    graph = random_graph(10, 2.0, 0)
    with pytest.raises(ValueError):
        synthetic_ensemble(graph, 3, 2, transform="reflection", seed=0)
