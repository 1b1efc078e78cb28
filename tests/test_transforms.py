"""Seeded generators and exact transform application."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    GraphTopology,
    InstanceTooLarge,
    NotABijection,
    ShapeMismatch,
    apply_permutation,
    ggi_index,
    perturb_gaussian,
    random_graph,
    random_orthogonal,
    synthetic_ensemble,
)
import gramstab.transforms as transforms_mod

import oracles


@settings(max_examples=30, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_orthogonal_is_orthogonal(dim, seed):
    q = random_orthogonal(dim, seed)
    np.testing.assert_allclose(q.T @ q, np.eye(dim), atol=1e-12)


def test_generators_are_deterministic_per_seed():
    assert np.array_equal(
        random_orthogonal(5, 42), random_orthogonal(5, 42)
    )
    assert not np.array_equal(
        random_orthogonal(5, 42), random_orthogonal(5, 43)
    )


def test_isometry_preserves_distances():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(12, 4))
    mapped = values @ random_orthogonal(4, 6) + np.random.default_rng(7).normal(size=4)
    from scipy.spatial.distance import pdist

    np.testing.assert_allclose(pdist(values), pdist(mapped), atol=1e-10)


def test_permutation_requires_bijection():
    values = np.zeros((3, 2))
    graph = random_graph(3, 2.0, 0)
    with pytest.raises(NotABijection):
        apply_permutation(values, graph, np.array([0, 0, 2]))
    with pytest.raises(NotABijection):
        apply_permutation(values, graph, np.array([0, 1, 3]))


@pytest.mark.parametrize("mapping", [[0.9, 1.5, 2.2], [0.0, 1.0, 2.0], [True, False, True]],
                         ids=["float", "integral-float", "bool"])
def test_permutation_refuses_non_integer_mapping(mapping):
    # A cast used to accept [0.9, 1.5, 2.2] as the identity.
    with pytest.raises(NotABijection, match="^mapping entries must be integers, got "):
        apply_permutation(np.zeros((3, 2)), random_graph(3, 2.0, 0), mapping)


# Not counts: casting would make 2 nodes of 2.5 and 1 of True, and numpy
# failed on 3.0 with its own TypeError.
_NOT_COUNTS = [2.5, 3.0, True]


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: GraphTopology(0, []), None, id="no-nodes"),
    pytest.param(lambda: GraphTopology(3, [[0, 3]]), None, id="endpoint-out-of-range"),
    pytest.param(lambda: random_orthogonal(0, 1), None, id="orthogonal-dim-0"),
    pytest.param(lambda: random_graph(1, 2.0, 0), None, id="graph-one-node"),
    pytest.param(lambda: apply_permutation(np.zeros((2, 2)), GraphTopology(3, [[0, 1]]),
                                           [2, 0, 1]), None, id="permutation-rows"),
    # Past _KEY_NODES, refused before the candidates' buffer is allocated.
    pytest.param(lambda: random_graph(4_000_000_000, 1e-6, 0), None, id="graph-past-key-limit"),
    pytest.param(lambda: random_graph(4_000_000_000, 1e9, 0), None,
                 id="graph-past-key-limit-dense"),
    *(pytest.param(build, f"^{what} must be an integer, got {count!r}$", id=f"{name}-{count}")
      for count in _NOT_COUNTS for name, what, build in [
          ("topology-nodes", "node_count", lambda c=count: GraphTopology(c, [])),
          ("from-pairs-nodes", "node_count", lambda c=count: GraphTopology.from_pairs(c, [])),
          ("graph-nodes", "node_count", lambda c=count: random_graph(c, 2.0, 0)),
          ("synthetic-nodes", "node_count", lambda c=count: synthetic_ensemble(c, 2, 2)),
          ("synthetic-dim", "dimension", lambda c=count: synthetic_ensemble(10, c, 2)),
          ("orthogonal-dim", "dimension", lambda c=count: random_orthogonal(c, 0)),
      ]),
])
def test_sizes_out_of_range_raise_shape_mismatch(monkeypatch, build, message):
    # Each is refused before anything is allocated or drawn.
    monkeypatch.setattr(transforms_mod, "_stream", _no_stream)
    monkeypatch.setattr(transforms_mod.np, "empty", _no_stream)
    with pytest.raises(ShapeMismatch, match=message):
        build()


def test_numpy_integer_counts_are_accepted():
    # The integer rule refuses floats and bools, not numpy's integers.
    nodes, dim = np.int64(6), np.int32(3)
    assert GraphTopology(nodes, [[0, 1]]).node_count == 6
    assert GraphTopology.from_pairs(nodes, [[1, 0]])[0].edges.tolist() == [[0, 1]]
    assert random_graph(nodes, 2.0, 0).node_count == 6
    assert next(synthetic_ensemble(nodes, dim, 2)).shape == (6, 3)
    assert random_orthogonal(dim, 0).shape == (3, 3)


def test_permutation_inverse_round_trips():
    sigma = np.random.default_rng(9).permutation(15)
    graph = random_graph(15, 3.0, 1)
    rng = np.random.default_rng(2)
    values = rng.normal(size=(15, 3))
    permuted, relabeled = apply_permutation(values, graph, sigma)
    back, graph_back = apply_permutation(permuted, relabeled, np.argsort(sigma))
    np.testing.assert_array_equal(back, values)
    np.testing.assert_array_equal(graph_back.edges, graph.edges)


def test_permutation_moves_rows_where_edges_go():
    # Row sigma(i) of the permuted matrix is old row i, and edges follow.
    sigma = np.array([2, 0, 1])
    values = np.array([[0.0], [1.0], [2.0]])
    graph = random_graph(3, 2.0, 0)
    permuted, relabeled = apply_permutation(values, graph, sigma)
    for old in range(3):
        assert permuted[sigma[old], 0] == values[old, 0]
    old_pairs = {frozenset(e) for e in graph.edges.tolist()}
    new_pairs = {
        frozenset((int(sigma[i]), int(sigma[j])))
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
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            perturb_gaussian(values, bad, seed=5)


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
    degree_share=st.floats(min_value=0.0, max_value=1.2, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**32)
    | st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=3),
)
@example(node_count=2, degree_share=1.0, seed=0)
@example(node_count=500, degree_share=1.0, seed=[7, 8])
# About 40k edges over 2^31 + 1 nodes: three spans of candidates, with
# about half of the 32-bit draws rejected, so spans end between rejections.
@example(node_count=2**31 + 1, degree_share=80_000 / 2**62, seed=3)
def test_random_graph_matches_row_masking_oracle(node_count, degree_share, seed):
    # degree_share 1 asks for the complete graph; past it, for more.
    avg_degree = degree_share * (node_count - 1)
    graph = random_graph(node_count, avg_degree, seed)
    assert graph.edges.tolist() == oracles.random_graph_brute(node_count, avg_degree, seed)


def test_random_graph_peaks_at_its_candidate_keys():
    # The candidates are drawn a span at a time into one int64 key per
    # candidate pair (four per edge): twice the edges' bytes, plus a span.
    # Drawing them as one (4|E|, 2) array beside their keys peaked at 6x.
    np.random.default_rng(0)  # numpy imports numpy.random on first use, outside the trace
    tracemalloc.start()
    try:
        graph = random_graph(20_000, 20.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count == 200_000
    assert peak < 2.5 * graph.edges.nbytes, peak / graph.edges.nbytes


def test_random_graph_caps_at_complete_graph():
    graph = random_graph(5, 100.0, 0)
    assert graph.edge_count == 10  # 5 choose 2
    # 30 * 1e308 overflows to inf; the target is clamped before int().
    assert random_graph(30, 1e308, 0).edge_count == 435  # 30 choose 2


def test_synthetic_zero_noise_yields_identical_configs():
    configs = list(synthetic_ensemble(30, 5, 4, noise=0.0, seed=3))
    for cfg in configs[1:]:
        np.testing.assert_array_equal(cfg, configs[0])


def test_synthetic_zero_noise_configs_share_no_memory():
    configs = list(synthetic_ensemble(30, 5, 3, noise=0.0, seed=3))
    for idx, cfg in enumerate(configs):
        # A view would be a view of the base embedding.
        assert type(cfg) is np.ndarray and cfg.dtype == np.float64
        assert cfg.base is None and cfg.flags.writeable
        for other in configs[idx + 1:]:
            assert not np.shares_memory(cfg, other)


def test_synthetic_transforms_keep_index_at_zero():
    # A transformed ensemble is the noise-free copies passed through the
    # public transforms: one per configuration for a rotation or a shift,
    # one shared relabelling of rows and edges for a permutation.
    graph = random_graph(40, 5.0, 4)
    configs = list(synthetic_ensemble(graph.node_count, 6, 3, noise=0.0, seed=5))
    mapping = np.random.default_rng(6).permutation(graph.node_count)
    permuted = [apply_permutation(c, graph, mapping) for c in configs]
    ensembles = {
        "none": (configs, graph),
        "orthogonal": ([c @ random_orthogonal(6, [5, i]) for i, c in enumerate(configs)], graph),
        "translation": ([c + np.random.default_rng([5, i]).normal(size=6)
                         for i, c in enumerate(configs)], graph),
        "permutation": ([values for values, _ in permuted], permuted[0][1]),
    }
    for kind, (ensemble, g) in ensembles.items():
        assert abs(ggi_index(ensemble, g).index_value) <= 1e-12, kind


def test_synthetic_noise_separates_configs():
    configs = list(synthetic_ensemble(30, 5, 3, noise=0.2, seed=7))
    assert not np.array_equal(configs[0], configs[1])


def test_synthetic_is_deterministic():
    a = synthetic_ensemble(20, 4, 3, noise=0.1, seed=9)
    b = synthetic_ensemble(20, 4, 3, noise=0.1, seed=9)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("dim, noise, error, message", [
    (0, 0.0, ShapeMismatch, "dimension must be >= 1, got 0"),
    (-1, 0.0, ShapeMismatch, "dimension must be >= 1, got -1"),
    (3, -1.0, ValueError, "sigma_noise must be finite and >= 0, got -1.0"),
    (3, float("nan"), ValueError, "sigma_noise must be finite and >= 0, got nan"),
    (3, float("inf"), ValueError, "sigma_noise must be finite and >= 0, got inf"),
])
def test_synthetic_checks_its_arguments_when_called(monkeypatch, dim, noise, error, message):
    # Refused by the call itself, before the base is drawn: not at the
    # first configuration, and not by numpy.
    monkeypatch.setattr(transforms_mod, "_stream", _no_stream)
    with pytest.raises(error, match=f"^{message}$"):
        synthetic_ensemble(10, dim, 2, noise=noise)


def _no_stream(*args, **kwargs):
    raise AssertionError("a stream was opened or an array allocated before the arguments "
                         "were checked")


@pytest.mark.parametrize("node_count", [0, -1])
def test_synthetic_refuses_a_node_count_below_one(monkeypatch, node_count):
    monkeypatch.setattr(transforms_mod, "_stream", _no_stream)
    with pytest.raises(ShapeMismatch, match=f"^node_count must be >= 1, got {node_count}$"):
        synthetic_ensemble(node_count, 3, 2)


@pytest.mark.parametrize("avg_degree", [0.0, -5.0, float("nan"), float("inf"), float("-inf")])
def test_random_graph_refuses_a_degree_not_finite_and_positive(monkeypatch, avg_degree):
    # -5.0 used to draw one edge, inf the complete graph, and nan to fail
    # in int(); synth refuses each of them as --avg-degree.
    monkeypatch.setattr(transforms_mod, "_stream", _no_stream)
    with pytest.raises(ValueError, match=f"^avg_degree must be finite and > 0, got {avg_degree}$"):
        random_graph(10, avg_degree, 0)


@pytest.mark.parametrize("host_refuses", [False, True], ids=["numpy-size-limit", "host-memory"])
def test_random_graph_names_a_key_buffer_it_cannot_allocate(monkeypatch, host_refuses):
    # 1.5e18 edges need 6e18 candidate keys, 4.8e19 bytes: past what numpy
    # can index, so it refuses without allocating. A MemoryError, faked
    # here rather than provoked, is the same input problem.
    node_count, avg_degree, target = 3_000_000_000, 1e9, 1_500_000_000_000_000_000
    if host_refuses:
        node_count, avg_degree, target = 1000, 4.0, 2000
        empty = np.empty

        def refusing_empty(shape, *args, **kwargs):
            if shape == 4 * target:
                raise MemoryError((shape,), np.dtype(np.int64))
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(transforms_mod.np, "empty", refusing_empty)
    with pytest.raises(InstanceTooLarge, match=(
        f"^{target} edges need {8 * 4 * target} bytes of int64 candidate keys, "
        f"more than can be allocated$"
    )):
        random_graph(node_count, avg_degree, 0)
