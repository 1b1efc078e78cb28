"""Edge-restricted Gram summaries and their dispersion."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    EmptyGraph,
    GraphTopology,
    NonFiniteScore,
    ShapeMismatch,
    TooFewConfigs,
    ggi_index,
    random_graph,
    score_configuration,
)
from gramstab.ggi import dispersion

import oracles


def _random_instance(seed, n_nodes=30, dim=4, n_configs=3, noise=0.1):
    rng = np.random.default_rng(seed)
    graph = random_graph(n_nodes, 4.0, seed)
    base = rng.normal(size=(n_nodes, dim))
    configs = [base + rng.normal(0.0, noise, size=base.shape) for _ in range(n_configs)]
    return graph, configs


def test_edge_summary_matches_dense_mask():
    graph, configs = _random_instance(0)
    for values in configs:
        fast = score_configuration(values, graph, preprocess=False).score
        slow = oracles.dense_edge_summary(values, graph.edges, graph.node_count)
        assert abs(fast - slow) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_edge_summary_matches_dense_mask_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    dim = int(rng.integers(1, 9))
    graph = random_graph(n, min(3.0, n - 1), seed)
    values = rng.normal(size=(n, dim))
    fast = score_configuration(values, graph, preprocess=False).score
    slow = oracles.dense_edge_summary(values, graph.edges, graph.node_count)
    assert abs(fast - slow) <= 1e-12


def test_blockwise_accumulation_is_exact(monkeypatch):
    # Force many blocks by shrinking the block sizes; totals must agree
    # with the single-pass value bit for bit is too strict, 1e-12 is not.
    # The gather block alone never changes the sum's order, so shrinking
    # only it must leave the score bit for bit unchanged.
    import gramstab.ggi as ggi_mod

    graph, configs = _random_instance(7, n_nodes=200, dim=3)
    whole = score_configuration(configs[0], graph, preprocess=False).score
    monkeypatch.setattr(ggi_mod, "_GATHER_ELEMENTS", 8)
    assert score_configuration(configs[0], graph, preprocess=False).score == whole
    monkeypatch.setattr(ggi_mod, "_BLOCK_ELEMENTS", 16)
    chunked = score_configuration(configs[0], graph, preprocess=False).score
    assert abs(whole - chunked) <= 1e-12


def _grouped_gather_mean(values, edges, block_elements):
    """The kernel as it was before gathers were split from summation
    groups: gather, dot and sum one group of edges at a time."""
    block = max(1, block_elements // values.shape[1])
    total = 0.0
    for start in range(0, edges.shape[0], block):
        chunk = edges[start : start + block]
        total += float(
            np.einsum("ij,ij->i", values[chunk[:, 0]], values[chunk[:, 1]]).sum()
        )
    return total / edges.shape[0]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_edges=st.integers(min_value=1, max_value=600),
    dim=st.integers(min_value=1, max_value=24),
    gather_elements=st.integers(min_value=1, max_value=400),
    block_elements=st.integers(min_value=1, max_value=3000),
)
# |E| below one gather block (the module's real block sizes)
@example(seed=1, n_edges=37, dim=5, gather_elements=32_768, block_elements=2_097_152)
# |E| not a multiple of the gather block
@example(seed=2, n_edges=203, dim=4, gather_elements=64, block_elements=2_097_152)
# d beyond the gather budget: one edge per gather
@example(seed=3, n_edges=50, dim=13, gather_elements=8, block_elements=2_097_152)
# several summation groups, not aligned to gather blocks
@example(seed=4, n_edges=500, dim=3, gather_elements=40, block_elements=100)
def test_edge_mean_matches_grouped_gather_exactly(
    seed, n_edges, dim, gather_elements, block_elements
):
    import gramstab.ggi as ggi_mod

    rng = np.random.default_rng(seed)
    values = rng.normal(size=(20, dim))
    edges = rng.integers(0, 20, size=(n_edges, 2))
    # The same matrix Fortran-ordered and as a column-strided view: the
    # gather copies rows into C-ordered blocks, so the bits do not move.
    wide = np.zeros((20, 2 * dim))
    wide[:, ::2] = values
    layouts = [values, np.asfortranarray(values), wide[:, ::2]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ggi_mod, "_GATHER_ELEMENTS", gather_elements)
        mp.setattr(ggi_mod, "_BLOCK_ELEMENTS", block_elements)
        fast = [ggi_mod._edge_mean_inner(layout, edges) for layout in layouts]
    assert fast == [_grouped_gather_mean(values, edges, block_elements)] * 3


@pytest.mark.parametrize("dim", [8, 128, 512])
def test_edge_mean_matches_grouped_gather_at_scale(dim):
    # The module's own block sizes over several gather blocks and, at
    # d >= 128, several summation groups.
    import gramstab.ggi as ggi_mod

    rng = np.random.default_rng(dim)
    values = rng.normal(size=(2000, dim))
    edges = rng.integers(0, 2000, size=(40_003, 2))
    fast = ggi_mod._edge_mean_inner(values, edges)
    assert fast == _grouped_gather_mean(values, edges, ggi_mod._BLOCK_ELEMENTS)


def test_ggi_matches_dense_oracle():
    graph, configs = _random_instance(3)
    report = ggi_index(configs, graph)
    expected = oracles.ggi_dense(configs, graph.edges, graph.node_count)
    assert abs(report.index_value - expected) <= 1e-12
    assert report.index_percent == report.index_value * 100.0


def test_identical_configs_score_exact_zero():
    graph, configs = _random_instance(5)
    same = [configs[0].copy() for _ in range(4)]
    report = ggi_index(same, graph)
    assert report.index_value == 0.0


def test_dispersion_conventions():
    scores = np.array([0.1, 0.2, 0.4])
    assert dispersion(scores, "population") == pytest.approx(np.std(scores, ddof=0))
    assert dispersion(scores, "sample") == pytest.approx(np.std(scores, ddof=1))
    # An unknown convention is an error, not the sample std; equal scores,
    # which short-circuit to 0.0, do not get past it either.
    for bogus in (scores, np.array([0.3, 0.3])):
        with pytest.raises(ValueError, match="std must be one of"):
            dispersion(bogus, "bogus")

    def unread():
        raise AssertionError("a configuration was read before std was checked")
        yield

    graph, _ = _random_instance(10)
    with pytest.raises(ValueError, match="std must be one of"):
        ggi_index(unread(), graph, std="bogus")


def test_sample_convention_flows_through():
    graph, configs = _random_instance(11)
    pop = ggi_index(configs, graph, std="population").index_value
    samp = ggi_index(configs, graph, std="sample").index_value
    assert samp > pop  # ddof=1 inflates dispersion for small N
    assert samp == pytest.approx(pop * np.sqrt(len(configs) / (len(configs) - 1)))


def test_empty_graph_and_shape_mismatch():
    graph = GraphTopology(3, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(EmptyGraph):
        score_configuration(np.ones((3, 2)), graph, preprocess=False)
    real = GraphTopology.from_pairs(3, np.array([[0, 1]]))[0]
    with pytest.raises(ShapeMismatch) as err:
        score_configuration(np.ones((4, 2)), real, config_index=2)
    assert "config 2" in str(err.value)


@pytest.mark.parametrize("preprocess", [False, True])
def test_overflowing_score_is_a_named_error(preprocess):
    # Finite entries too large for float64 arithmetic must not come back
    # as a NaN or infinite score: without preprocessing the inner
    # products overflow, with it the column sums behind the mean do.
    graph, _ = _random_instance(15)
    rng = np.random.default_rng(15)
    huge = 1e308 * (1.0 + 0.5 * rng.random((graph.node_count, 4)))
    with pytest.raises(NonFiniteScore) as err:
        score_configuration(huge, graph, config_index=2, preprocess=preprocess)
    assert err.value.config_index == 2
    assert "config 2" in str(err.value)


def test_index_past_float64_is_a_named_error():
    # Raw scores of +-3e307 are finite, but their spread, in percent, is not.
    graph = GraphTopology.from_pairs(2, np.array([[0, 1]]))[0]
    root = np.sqrt(3e307)
    configs = [np.array([[root], [root]]), np.array([[root], [-root]])]
    with pytest.raises(NonFiniteScore, match="the index is"):
        ggi_index(iter(configs), graph, preprocess=False)


def test_huge_entries_score_as_their_rescaled_copy():
    # Rows of entries near 1e160 have squared norms past the float64
    # range; they must still normalize to the rows of the unscaled
    # ensemble, not collapse to zero and score a "perfectly stable" 0.0.
    graph, configs = _random_instance(16, noise=0.3)
    plain = ggi_index(iter(configs), graph)
    huge = ggi_index(iter([c * 1e160 for c in configs]), graph)
    assert huge.scores == pytest.approx(plain.scores, abs=1e-12)
    assert abs(huge.index_value - plain.index_value) <= 1e-12
    assert plain.index_value > 1e-3
    assert [s.degenerate_rows for s in huge.per_config] == [0, 0, 0]


def test_too_few_configs():
    graph, configs = _random_instance(1)
    with pytest.raises(TooFewConfigs):
        ggi_index(iter(configs[:1]), graph)


def test_streaming_iterable_matches_ensemble():
    graph, configs = _random_instance(9, n_configs=5)
    eager = ggi_index(configs, graph).index_value

    def gen():
        for c in configs:
            yield c.copy()

    lazy = ggi_index(gen(), graph, copy=False).index_value
    assert lazy == eager


def test_copy_true_leaves_caller_data_alone():
    graph, configs = _random_instance(13)
    before = configs[0].copy()
    score_configuration(configs[0], graph, copy=True)
    np.testing.assert_array_equal(configs[0], before)


def test_copy_false_preprocesses_in_place():
    graph, configs = _random_instance(14)
    work = configs[0].copy()
    score_configuration(work, graph, copy=False)
    norms = np.linalg.norm(work, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


def test_preprocessed_scores_are_cosine_bounded():
    graph, configs = _random_instance(21, n_nodes=50, dim=2)
    for values in configs:
        s = score_configuration(values, graph).score
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def test_no_preprocess_uses_raw_inner_products():
    graph, configs = _random_instance(4)
    scaled = [10.0 * c for c in configs]
    raw = ggi_index(scaled, graph, preprocess=False).index_value
    expected = oracles.ggi_dense(scaled, graph.edges, graph.node_count, preprocess=False)
    assert abs(raw - expected) <= 1e-10


def test_report_metadata_names_conventions():
    graph, configs = _random_instance(8)
    report = ggi_index(configs, graph)
    assert report.metadata["std"] == "population"
    assert report.metadata["preprocess"] is True
    assert len(report.metadata["degenerate_rows"]) == len(configs)
