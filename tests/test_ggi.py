"""Edge-restricted Gram summaries and their dispersion."""

import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    EmptyGraph,
    GraphTopology,
    InternalInvariant,
    NonFiniteScore,
    ShapeMismatch,
    TooFewConfigs,
    center_normalize_inplace,
    ggi_index,
    random_graph,
    score_configuration,
)
from gramstab.ggi import _edge_mean_inner, dispersion

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
        fast = _edge_mean_inner(values, graph.edges)
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
    fast = _edge_mean_inner(values, graph.edges)
    slow = oracles.dense_edge_summary(values, graph.edges, graph.node_count)
    assert abs(fast - slow) <= 1e-12


def test_blockwise_accumulation_is_exact(monkeypatch):
    # Force many blocks by shrinking the block sizes; totals must agree
    # with the single-pass value bit for bit is too strict, 1e-12 is not.
    # The gather block alone never changes the sum's order, so shrinking
    # only it must leave the score bit for bit unchanged.
    import gramstab.ggi as ggi_mod

    graph, configs = _random_instance(7, n_nodes=200, dim=3)
    whole = _edge_mean_inner(configs[0], graph.edges)
    monkeypatch.setattr(ggi_mod, "_GATHER_ELEMENTS", 8)
    assert _edge_mean_inner(configs[0], graph.edges) == whole
    monkeypatch.setattr(ggi_mod, "_BLOCK_ELEMENTS", 16)
    chunked = _edge_mean_inner(configs[0], graph.edges)
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
@example(seed=1, n_edges=37, dim=5, gather_elements=65_536, block_elements=2_097_152)
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    rows=st.integers(min_value=1, max_value=40),
    dim=st.integers(min_value=1, max_value=6),
    n_edges=st.integers(min_value=1, max_value=300),
    span_elements=st.integers(min_value=1, max_value=64),
    gather_elements=st.integers(min_value=1, max_value=200),
    block_elements=st.integers(min_value=1, max_value=500),
    scale=st.sampled_from([1.0, 1e200]),
    degenerate=st.booleans(),
    fortran=st.booleans(),
)
# |E| below one gather block (the module's real block sizes)
@example(seed=1, rows=20, dim=5, n_edges=37, span_elements=65_536, gather_elements=65_536,
         block_elements=2_097_152, scale=1.0, degenerate=False, fortran=False)
# spans that split gather blocks and summation groups
@example(seed=2, rows=40, dim=3, n_edges=299, span_elements=7, gather_elements=21,
         block_elements=51, scale=1.0, degenerate=False, fortran=False)
# fewer rows than workers
@example(seed=3, rows=3, dim=2, n_edges=4, span_elements=1, gather_elements=1,
         block_elements=3, scale=1.0, degenerate=False, fortran=False)
# the rescale path, and degenerate rows under it
@example(seed=4, rows=30, dim=4, n_edges=200, span_elements=5, gather_elements=12,
         block_elements=40, scale=1e200, degenerate=True, fortran=False)
def test_worker_count_does_not_change_bits(
    seed, rows, dim, n_edges, span_elements, gather_elements, block_elements,
    scale, degenerate, fortran,
):
    # Center-normalize and the edge mean give the serial path's bits for
    # any number of CPUs, including more CPUs than rows or gather blocks.
    import gramstab.core as core_mod
    import gramstab.ggi as ggi_mod

    rng = np.random.default_rng(seed)
    values = rng.integers(-4, 5, size=(rows, dim)).astype(np.float64)
    if degenerate:
        # x, -x and zero rows: unscaled, the mean is exactly 0 and the zero
        # rows are degenerate.
        half = values[: (rows + 1) // 3]
        values = np.vstack([half, -half, np.zeros((rows - 2 * half.shape[0], dim))])
    else:
        values += rng.normal(0.0, 0.5, size=values.shape)
    values *= scale
    if fortran:
        values = np.asfortranarray(values)
    edges = rng.integers(0, rows, size=(n_edges, 2))
    results = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_mod, "_SPAN_ELEMENTS", span_elements)
        mp.setattr(ggi_mod, "_GATHER_ELEMENTS", gather_elements)
        mp.setattr(ggi_mod, "_BLOCK_ELEMENTS", block_elements)
        for cpus in (1, 2, 3, 5):
            mp.setattr(core_mod, "_cpu_count", lambda: cpus)
            work = values.copy(order="A")
            n_degenerate = center_normalize_inplace(work)
            results.append((work, n_degenerate, ggi_mod._edge_mean_inner(work, edges),
                            ggi_mod._edge_mean_inner(values / scale, edges)))
    serial = results[0]
    if degenerate and scale == 1.0:
        assert serial[1] >= rows - 2 * ((rows + 1) // 3)
    for work, *scores in results[1:]:
        assert np.array_equal(work, serial[0])
        assert scores == list(serial[1:])


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_failing_span_fails_loudly(monkeypatch, failing):
    # Whichever span raises, every other span finishes and its thread is
    # joined before the error reaches the caller.
    import gramstab.core as core_mod

    monkeypatch.setattr(core_mod, "_cpu_count", lambda: 3)
    finished = []

    def work(lo, hi):
        if lo // 10 == failing:
            raise RuntimeError(f"span {lo}:{hi} failed")
        time.sleep(0.02)
        finished.append(lo)

    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"span {failing * 10}:"):
        core_mod._over_spans(30, work, 10)
    assert threading.active_count() == before
    assert sorted(finished) == [lo for lo in (0, 10, 20) if lo != failing * 10]


class _EdgesFailingPast(np.ndarray):
    """An edge array whose slices from row ``FAIL_FROM`` on raise, as a
    span of the gather would if it failed."""

    FAIL_FROM = 20

    def __getitem__(self, key):
        if isinstance(key, slice) and (key.start or 0) >= self.FAIL_FROM:
            raise RuntimeError("gather failed")
        return np.asarray(self)[key]


def test_no_score_from_a_partly_gathered_span(monkeypatch):
    # The last of three spans fails; the other two have written their
    # dots, but the kernel raises rather than sum the unwritten ones.
    import gramstab.core as core_mod
    import gramstab.ggi as ggi_mod

    monkeypatch.setattr(core_mod, "_cpu_count", lambda: 3)
    monkeypatch.setattr(ggi_mod, "_GATHER_ELEMENTS", 4)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(10, 2))
    edges = rng.integers(0, 10, size=(30, 2)).view(_EdgesFailingPast)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="gather failed"):
        ggi_mod._edge_mean_inner(values, edges)
    assert threading.active_count() == before


def test_row_spans_overflow_quietly(monkeypatch):
    # Centering that overflows in a worker's span is the named error
    # alone: the worker threads ignore the overflow as the caller does.
    import gramstab.core as core_mod

    monkeypatch.setattr(core_mod, "_cpu_count", lambda: 3)
    monkeypatch.setattr(core_mod, "_SPAN_ELEMENTS", 2)
    work = np.random.default_rng(6).normal(size=(30, 2))
    # The column mean is finite (about -5.6e306), but row 14, in the
    # second of three spans, overflows when it is centered.
    work[:, 0] = -1.2e307
    work[14, 0] = 1.79e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteScore, match="^config 4: centered values"):
            center_normalize_inplace(work, 4)


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
    assert dispersion(scores) == pytest.approx(np.std(scores, ddof=0))


def test_empty_graph_and_shape_mismatch():
    graph = GraphTopology(3, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(EmptyGraph):
        score_configuration(np.ones((3, 2)), graph)
    real = GraphTopology.from_pairs(3, np.array([[0, 1]]))[0]
    with pytest.raises(ShapeMismatch) as err:
        score_configuration(np.ones((4, 2)), real, config_index=2)
    assert "config 2" in str(err.value)


def test_overflowing_score_is_a_named_error():
    # Finite entries too large for float64 arithmetic must not come back
    # as a NaN or infinite score: the column sums behind the mean overflow.
    graph, _ = _random_instance(15)
    rng = np.random.default_rng(15)
    huge = 1e308 * (1.0 + 0.5 * rng.random((graph.node_count, 4)))
    with pytest.raises(NonFiniteScore) as err:
        score_configuration(huge, graph, config_index=2)
    assert err.value.config_index == 2
    assert "config 2" in str(err.value)


def test_overflow_in_a_row_off_every_edge_is_named():
    # Row 0 alone overflows when centered (its column mean is finite), and
    # no edge reads it: the edge summary stays finite, so only centering
    # itself can refuse the configuration instead of scoring it 0.0.
    graph = GraphTopology(3, np.array([[1, 2]]))
    far = np.array([[1.7e308, 0.0], [-1.7e308, 1.0], [-1.7e308, 2.0]])
    near = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 5.0]])
    with pytest.raises(NonFiniteScore, match="^config 1: centered values") as err:
        ggi_index([near, far], graph)
    assert err.value.config_index == 1


def test_converted_input_is_copied_once():
    # A float32 configuration is converted to a fresh float64 array, which
    # the pipeline owns: copying it again would double the peak.
    n, dim = 20_000, 64
    graph = GraphTopology(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
    values = np.random.default_rng(4).normal(size=(n, dim)).astype(np.float32)
    tracemalloc.start()
    try:
        score_configuration(values, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * dim * 8, peak / (n * dim * 8)


class _CountedArray:
    """A matrix behind ``__array__``, as a tensor type holds one; counts
    how often it is converted."""

    def __init__(self, values):
        self.values = values
        self.conversions = 0

    def __array__(self, dtype=None, copy=None):
        self.conversions += 1
        return np.array(self.values, dtype=dtype)


@pytest.mark.parametrize("copy", [True, False])
def test_array_like_input_is_converted_once(copy):
    graph, configs = _random_instance(5)
    counted = _CountedArray(configs[0])
    score, _ = score_configuration(counted, graph, copy=copy)
    assert counted.conversions == 1
    assert score == score_configuration(configs[0], graph)[0]


def test_shared_input_is_left_unchanged(tmp_path):
    # np.asarray of a memmap is another object over the same memory, and a
    # read-only array cannot be preprocessed in place even with copy=False.
    graph, configs = _random_instance(12)
    mapped = np.memmap(tmp_path / "values.f8", dtype=np.float64, mode="w+",
                       shape=configs[0].shape)
    mapped[:] = configs[0]
    frozen = configs[1].copy()
    frozen.flags.writeable = False
    for mat, copy in ((mapped, True), (frozen, False)):
        before = np.array(mat)
        score, _ = score_configuration(mat, graph, copy=copy)
        assert np.array_equal(mat, before)
        assert score == score_configuration(before, graph)[0]
    del mapped


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
    assert huge.degenerate_rows == (0, 0, 0)


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
        s = score_configuration(values, graph)[0]
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12


def test_a_score_outside_the_cosine_bound_is_an_internal_error(monkeypatch):
    # A NaN edge summary must fail the bound too, not reach the report.
    import gramstab.ggi as ggi_mod

    graph, configs = _random_instance(4)
    monkeypatch.setattr(ggi_mod, "_edge_mean_inner", lambda values, edges: float("nan"))
    with pytest.raises(InternalInvariant, match="escaped the cosine bound"):
        score_configuration(configs[0], graph)


def test_report_metadata_names_conventions():
    graph, configs = _random_instance(8)
    report = ggi_index(configs, graph)
    assert len(report.degenerate_rows) == report.n_configs == len(configs)
    assert report.scores.dtype == np.float64 and not report.scores.flags.writeable
