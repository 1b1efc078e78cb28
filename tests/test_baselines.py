"""Comparison indices against brute-force oracles."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    GraphTopology,
    InstanceTooLarge,
    KTooLarge,
    NonFiniteInput,
    NonFiniteScore,
    ShapeMismatch,
    TooFewConfigs,
    aligned_cosine_index,
    ggi_index,
    hausdorff_index,
    knn_jaccard_index,
    knn_neighbors,
    procrustes_align,
    random_orthogonal,
    second_order_cosine_index,
    wasserstein_index,
)

import oracles
from gramstab import baselines
from gramstab.core import center_normalize_inplace, magnitude_scale


def _ensemble(seed, n=12, dim=3, n_configs=3, noise=0.3):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, dim))
    configs = [base + rng.normal(0.0, noise, size=base.shape) for _ in range(n_configs)]
    return configs


def test_knn_matches_brute_force_cosine_and_euclidean():
    configs = _ensemble(0, n=20)
    for metric in ("cosine", "euclidean"):
        fast = knn_neighbors(configs[0], 5, metric)
        slow = oracles.knn_brute(configs[0], 5, metric)
        assert fast.tolist() == slow


def test_knn_breaks_ties_by_ascending_id():
    # Four copies of the same point: all cross-similarities tie at 1, so
    # each node's neighbor list is the other ids in ascending order.
    values = np.tile(np.array([[1.0, 2.0]]), (4, 1))
    result = knn_neighbors(values, 3, "cosine")
    assert result.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    result = knn_neighbors(values, 3, "euclidean")
    assert result.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def test_knn_never_contains_self():
    configs = _ensemble(1, n=15)
    result = knn_neighbors(configs[0], 14)
    for i, row in enumerate(result):
        assert i not in row


def test_k_bounds():
    configs = _ensemble(2, n=8)
    with pytest.raises(KTooLarge):
        knn_neighbors(configs[0], 8)  # k == |V|
    with pytest.raises(KTooLarge):
        knn_neighbors(configs[0], 0)


def test_jaccard_matches_brute_force():
    configs = _ensemble(3, n=18, n_configs=3)
    report = knn_jaccard_index(configs, 4)
    for (l, m), score in report.per_pair.items():
        expected = oracles.jaccard_brute(configs[l], configs[m], 4)
        assert abs(score - expected) <= 1e-12
    assert report.aggregate == pytest.approx(np.mean(list(report.per_pair.values())))


def test_second_order_matches_brute_force():
    configs = _ensemble(4, n=16, n_configs=3)
    report = second_order_cosine_index(configs, 4)
    for (l, m), score in report.per_pair.items():
        expected = oracles.second_order_brute(configs[l], configs[m], 4)
        assert abs(score - expected) <= 1e-12


def test_hausdorff_matches_brute_force():
    configs = _ensemble(5, n=14, n_configs=3)
    report = hausdorff_index(configs)
    for (l, m), score in report.per_pair.items():
        expected = oracles.hausdorff_brute(configs[l], configs[m])
        assert abs(score - expected) <= 1e-12


@st.composite
def _hausdorff_ensembles(draw):
    """Small ensembles with zero and duplicate rows, Gaussian or on a
    half-integer grid (many rows tie at the maximum), shifted so that the
    screen's norms are large against the distances, and scaled by 2^k
    across and beyond MAGNITUDE_WINDOW, down to subnormal entries; one
    scale for all configurations or one each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim, count = draw(st.integers(1, 12)), draw(st.integers(1, 16)), draw(st.integers(2, 3))
    grid = draw(st.booleans())
    shift = draw(st.sampled_from([0.0, 1.0, 2.0**20, 2.0**40]))
    exponents = draw(st.lists(st.integers(-1100, 960), min_size=1, max_size=count))
    configs = []
    for idx in range(count):
        values = rng.integers(-3, 4, size=(n, dim)) / 2 if grid else rng.normal(size=(n, dim))
        values[rng.random(n) < 0.2] = 0.0
        values[rng.random(n) < 0.2] = values[0]
        configs.append((values + shift) * 2.0 ** exponents[idx % len(exponents)])
    return configs


@settings(max_examples=300, deadline=None)
@given(configs=_hausdorff_ensembles(), preprocess=st.booleans())
@example(configs=[np.array([[0.5]]), np.array([[-1.25]])], preprocess=False)
@example(configs=[_ensemble(8)[0]] * 2, preprocess=False)
@example(configs=[np.full((6, 3), 0.7), _ensemble(9, n=6)[0]], preprocess=False)
@example(configs=[np.full((6, 3), 0.7), _ensemble(9, n=6)[0]], preprocess=True)
def test_hausdorff_equals_the_columnwise_oracle_bit_for_bit(configs, preprocess):
    # The index scores copies, center-normalized if drawn; the oracle sees
    # what the index sees: those copies divided by the largest magnitude scale.
    values = [np.array(c) for c in configs]
    if preprocess:
        for v in values:
            center_normalize_inplace(v)
    scale = max(magnitude_scale(v) for v in values)
    report = hausdorff_index(values)
    for (l, m), score in report.per_pair.items():
        assert score == scale * oracles.hausdorff_columnwise(values[l] / scale, values[m] / scale)
    if all(np.array_equal(c, configs[0]) for c in configs):
        assert report.aggregate == 0.0


def test_wasserstein_matches_enumeration():
    configs = _ensemble(6, n=6, n_configs=3)
    report = wasserstein_index(configs)
    for (l, m), score in report.per_pair.items():
        expected = oracles.wasserstein_brute(configs[l], configs[m])
        assert abs(score - expected) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_wasserstein_enumeration_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dim = int(rng.integers(1, 4))
    a = rng.normal(size=(n, dim))
    b = rng.normal(size=(n, dim))
    fast = wasserstein_index([a, b]).per_pair[(0, 1)]
    assert abs(fast - oracles.wasserstein_brute(a, b)) <= 1e-10


def _lsap_score(a, b):
    """W as the dense path computes it: scipy's cost matrix and solver."""
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


_FAMILIES = ("near-copies", "unrelated", "rounded-grid", "half-collapsed", "permuted", "binary")


@st.composite
def _assignment_pairs(draw):
    """Two configurations from one of six families, n in 2..200, d in
    1..40, scaled by 10^-3 to 10^3: near-copies and permuted near-copies
    (the certificate usually holds), unrelated clouds, values rounded to a
    half-integer grid, half the rows collapsed onto one point, and binary
    entries (exact distance ties, so it usually fails); all shifted by up
    to 2^20 in every coordinate, so that the screen's norms are large
    against the distances."""
    family = draw(st.sampled_from(_FAMILIES))
    n, dim = draw(st.integers(2, 200)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, dim))
    jitter = 10.0 ** draw(st.integers(-8, -1))
    if family == "near-copies":
        b = a + jitter * rng.normal(size=a.shape)
    elif family == "permuted":
        b = (a + jitter * rng.normal(size=a.shape))[rng.permutation(n)]
    elif family == "rounded-grid":
        a, b = np.round(2 * a) / 2, np.round(2 * (a + 0.3 * rng.normal(size=a.shape))) / 2
    elif family == "half-collapsed":
        b = a + jitter * rng.normal(size=a.shape)
        a[rng.random(n) < 0.5] = a[0]
    elif family == "binary":
        a, b = (a > 0).astype(float), (rng.normal(size=a.shape) > 0).astype(float)
    else:
        b = rng.normal(size=a.shape)
    # A shift makes the screen's rounding error large against the distances.
    shift = draw(st.sampled_from([0.0, 0.0, 2.0**10, 2.0**20]))
    magnitude = 10.0 ** draw(st.floats(-3, 3))
    return (a + shift) * magnitude, (b + shift) * magnitude


def test_wasserstein_equals_cdist_and_lsap_bit_for_bit():
    certified = []
    original = baselines._nearest_permutation

    def spy(*args):
        match = original(*args)
        certified.append(match is not None)
        return match

    @settings(max_examples=150, deadline=None)
    @given(pair=_assignment_pairs())
    def check(pair):
        a, b = pair
        assert wasserstein_index([a, b]).per_pair[(0, 1)] == _lsap_score(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(baselines, "_nearest_permutation", spy)
        check()
        # Every row has a unique nearest column, but both rows' is column
        # 0: not a permutation, so the solver decides.
        a, b = np.array([[0.0], [1.0]]), np.array([[0.4], [5.0]])
        score = wasserstein_index([a, b]).per_pair[(0, 1)]
        assert score == _lsap_score(a, b)
        assert abs(score - oracles.wasserstein_brute(a, b)) <= 1e-12
        assert certified[-1] is False
        # Each row's two distances differ by less than the screen's rounding
        # error at 2^20: the screen alone would pick the wrong permutation.
        a = np.array([[1048576.5, 1048577.0], [1048576.25, 1048575.25]])
        b = np.array([[1048576.375000073, 1048576.12499995],
                      [1048576.375000088, 1048576.124999893]])
        assert wasserstein_index([a, b]).per_pair[(0, 1)] == _lsap_score(a, b)
        assert certified[-1] is False
    assert set(certified) == {True, False}


def test_wasserstein_instance_cap(monkeypatch):
    # The cap bounds the dense cost matrix, so it binds only a pair that
    # the nearest-neighbour certificate does not solve.
    assert wasserstein_index([[[0.0], [1.0]]] * 2).metadata == {}
    rng = np.random.default_rng(7)
    big = rng.normal(size=(11, 2))
    monkeypatch.setattr(baselines, "_DENSE_MAX_NODES", 10)
    report = wasserstein_index([big, big.copy()])
    assert report.per_pair == {(0, 1): 0.0}
    noisy = [big, big + rng.normal(size=big.shape)]
    monkeypatch.setattr(baselines, "_DENSE_MAX_NODES", 11)
    assert wasserstein_index(noisy).per_pair[(0, 1)] == _lsap_score(*noisy)
    monkeypatch.setattr(baselines, "_DENSE_MAX_NODES", 10)
    with pytest.raises(InstanceTooLarge, match=r"pair \(0, 1\) needs a dense 11 x 11"):
        wasserstein_index(noisy)


def test_scores_past_float64_are_named_errors():
    # Finite entries whose distances leave the float64 range must not be
    # reported as inf (or crash the solver): the index names the pair.
    rng = np.random.default_rng(3)
    far = [1e307 * rng.normal(size=(60, 8)), 1e307 * (rng.normal(size=(60, 8)) + 2.0)]
    with pytest.raises(NonFiniteScore, match=r"wasserstein: pair \(0, 1\) scores inf"):
        wasserstein_index(far)
    # Here every pair is 1e308 apart, in range, but their sum is not.
    triangle = [np.array([[0.0, 0.0]]), np.array([[1e308, 0.0]]), np.array([[5e307, 8.66e307]])]
    with pytest.raises(NonFiniteScore, match="hausdorff: the mean over pairs is inf"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the named error alone
            hausdorff_index(triangle)
    # Finite entries whose column sums overflow cannot be centered: centering
    # names the configuration in ggi's words, and `baseline --preprocess`
    # reports that for every index (test_cli); uncentered, they are scored.
    huge = [rng.normal(size=(50, 4)) for _ in range(3)]
    for values in huge:
        values[:, 0] = 1.7e308
    for index in _INDICES.values():
        index(huge)  # the entries are scored as they are
    with pytest.raises(NonFiniteScore, match=r"^config 0: .* the entries are too large "
                       r"for float64 arithmetic \(rescale the embeddings\)$") as info:
        for idx, values in enumerate(huge):
            center_normalize_inplace(values.copy(), idx)
    assert info.value.config_index == 0


_INDICES = {
    "knn-jaccard": lambda e: knn_jaccard_index(e, 3),
    "second-order-cosine": lambda e: second_order_cosine_index(e, 3),
    "aligned-cosine": aligned_cosine_index,
    "hausdorff": hausdorff_index,
    "wasserstein": wasserstein_index,
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    dim=st.integers(min_value=1, max_value=6),
    n_configs=st.integers(min_value=2, max_value=4),
    bad=st.integers(min_value=0, max_value=3),
    column=st.integers(min_value=0, max_value=5),
    sign=st.sampled_from([1.0, -1.0]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_centering_overflow_is_one_named_error_for_every_index(n, dim, n_configs, bad,
                                                               column, sign, seed):
    # One column of one configuration at +-1.7e308 overflows its column sum.
    # ggi names that configuration through the one rule in
    # center_normalize_inplace, which never hands back a non-finite entry;
    # `baseline --preprocess` centers through the same rule (test_cli).
    rng = np.random.default_rng(seed)
    bad, column = bad % n_configs, column % dim
    configs = [rng.normal(size=(n, dim)) for _ in range(n_configs)]
    configs[bad][:, column] = sign * 1.7e308
    graph = GraphTopology(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
    with pytest.raises(NonFiniteScore, match=rf"^config {bad}: centered values are "
                       r"not finite; the entries are too large") as info:
        ggi_index(configs, graph)
    assert info.value.config_index == bad
    for idx, values in enumerate(configs):
        work = values.copy()
        try:
            center_normalize_inplace(work, idx)
        except NonFiniteScore as exc:
            assert idx == bad and exc.config_index == bad
        else:
            assert idx != bad and np.isfinite(work).all()


@pytest.mark.parametrize("name", list(_INDICES))
def test_every_index_checks_its_plain_list_input(name):
    # Configurations are plain nested lists or arrays; each index checks them.
    index = _INDICES[name]
    grid = [[float(i), float(i * i % 5)] for i in range(6)]
    with pytest.raises(TooFewConfigs):
        index([grid])
    with pytest.raises(ShapeMismatch, match="config 1 has 5 rows, expected 6") as info:
        index([grid, grid[:5], grid])
    assert info.value.config_index == 1
    for bad in (np.nan, np.inf):
        # Named as ggi_index names it.
        with pytest.raises(NonFiniteInput, match="^config 1: matrix contains NaN") as info:
            index([grid, [*grid[:5], [bad, 0.0]]])
        assert info.value.config_index == 1
    for rank in ([row[0] for row in grid], [grid, grid]):  # 1-D, 3-D
        with pytest.raises(ShapeMismatch, match="expected a 2-D matrix"):
            index([grid, rank])
    wide = [[*row, 1.0] for row in grid]
    if name.startswith(("knn", "second")):
        assert list(index([grid, wide]).per_pair) == [(0, 1)]
    else:
        with pytest.raises(ShapeMismatch, match="equal embedding dimensions") as info:
            index([grid, wide])
        assert info.value.config_index == 1


@pytest.mark.parametrize("scale", [1.0, 2.0**200], ids=["plain", "2^200"])
@pytest.mark.parametrize("noise", [0.0, 0.3], ids=["noise0", "noise0.3"])
def test_indices_never_write_into_their_input(scale, noise):
    # No copy guards the caller's arrays, so every index and the kNN search
    # only read them: a write into a read-only array raises ValueError. At
    # 2^200 the values leave MAGNITUDE_WINDOW and are rescaled first. A
    # repeated row makes kNN ties; noise 0 lets Wasserstein certify its
    # assignment, noise 0.3 sends pairs to scipy's solver.
    configs = [c * scale for c in _ensemble(11, n=20, dim=4, noise=noise)]
    for values in configs:
        values[7] = values[3]
    writable = [c.copy() for c in configs]
    for values in configs:
        values.flags.writeable = False
    runs = [
        *(lambda e, f=f, m=m: f(e, 3, metric=m)
          for f in (knn_jaccard_index, second_order_cosine_index) for m in baselines.METRICS),
        aligned_cosine_index, hausdorff_index, wasserstein_index,
    ]
    for index in runs:
        report, expected = index(configs), index(writable)
        assert report.per_pair == expected.per_pair
        assert report.metadata == expected.metadata
    for metric in baselines.METRICS:
        assert np.array_equal(knn_neighbors(configs[0], 3, metric),
                              knn_neighbors(writable[0], 3, metric))
    for values, copy in zip(configs, writable):
        assert np.array_equal(values, copy)


def test_aligned_cosine_is_one_under_pure_rotation():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(25, 5))
    rotated = base @ random_orthogonal(5, seed=9)
    report = aligned_cosine_index([base, rotated])
    assert report.per_pair[(0, 1)] == pytest.approx(1.0, abs=1e-10)


def test_aligned_cosine_penalizes_noise():
    configs = _ensemble(10, n=30, dim=4, noise=0.5)
    report = aligned_cosine_index(configs)
    for score in report.per_pair.values():
        assert score < 1.0 - 1e-6


def test_neighborhood_indices_survive_shared_relabel():
    # Relabeling nodes the same way in both configurations permutes
    # neighbor sets consistently, so set-overlap scores cannot change.
    configs = _ensemble(11, n=12, n_configs=2)
    sigma = np.random.default_rng(12).permutation(12)
    relabeled = []
    for c in configs:
        out = np.empty_like(c)
        out[sigma] = c
        relabeled.append(out)
    assert knn_jaccard_index(configs, 3).aggregate == pytest.approx(
        knn_jaccard_index(relabeled, 3).aggregate, abs=1e-12
    )
    assert second_order_cosine_index(configs, 3).aggregate == pytest.approx(
        second_order_cosine_index(relabeled, 3).aggregate, abs=1e-12
    )


def test_pairwise_report_shape():
    report = hausdorff_index(_ensemble(13, n_configs=4))
    assert set(report.per_pair) == {(l, m) for l in range(4) for m in range(l + 1, 4)}
    assert report.aggregate == np.mean([report.per_pair[p] for p in sorted(report.per_pair)])
    assert report.metadata == {}


def test_identical_configs_are_perfectly_stable():
    rng = np.random.default_rng(14)
    base = rng.normal(size=(10, 3))
    ens = [base, base.copy()]
    assert knn_jaccard_index(ens, 3).aggregate == 1.0
    assert hausdorff_index(ens).aggregate == 0.0
    assert wasserstein_index(ens).aggregate == 0.0
    assert second_order_cosine_index(ens, 3).aggregate == pytest.approx(
        1.0, abs=1e-12
    )
    assert aligned_cosine_index(ens).aggregate == pytest.approx(1.0, abs=1e-12)


def test_every_public_index_function_is_exported():
    import gramstab
    from gramstab import baselines, ggi

    names = {
        name
        for module in (baselines, ggi)
        for name, obj in vars(module).items()
        if name.endswith("_index")
        and not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }
    assert {"ggi_index", "wasserstein_index"} <= names
    assert sorted(names - set(gramstab.__all__)) == []


def _tie_heavy(rng, n, dim, metric):
    """A configuration whose neighbor keys tie often, at the k-th place too.

    Euclidean: points on a {0, 1, 2} grid, so many distances are equal.
    Cosine: copies of a few distinct rows, so whole groups of similarities
    are equal. Both get some all-zero rows.
    """
    if metric == "euclidean":
        values = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
    else:
        distinct = rng.normal(size=(int(rng.integers(1, 4)), dim))
        values = distinct[rng.integers(0, len(distinct), size=n)]
    values[rng.random(n) < 0.15] = 0.0
    return values


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    metric=st.sampled_from(["cosine", "euclidean"]),
    step=st.integers(min_value=2, max_value=4),
    n_blocks=st.integers(min_value=1, max_value=4),
    tail=st.integers(min_value=0, max_value=3),
)
@example(seed=3, metric="cosine", step=3, n_blocks=3, tail=1)
@example(seed=4, metric="euclidean", step=2, n_blocks=4, tail=1)
def test_blocked_search_matches_oracles_under_ties(seed, metric, step, n_blocks, tail):
    # Blocks of ``step`` rows, with a tail of ``tail`` rows; a one-row
    # tail must join the block before it.
    rng = np.random.default_rng(seed)
    n = max(step * n_blocks + tail % step, 4)
    dim = int(rng.integers(1, 4))
    k = int(rng.integers(1, n))
    configs = [_tie_heavy(rng, n, dim, metric) for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        # Both budgets give ``step`` rows: fewer than _GEMM_ROWS, so the
        # large-block rule applies.
        mp.setattr(baselines, "_CACHE_ELEMENTS", step * n)
        mp.setattr(baselines, "_BLOCK_ELEMENTS", step * n)
        blocks = baselines._row_blocks(n, n)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert min(b.stop - b.start for b in blocks) >= 2
        _check_against_oracles(configs, k, metric)


def _check_against_oracles(configs, k, metric):
    for values in configs:
        fast = knn_neighbors(values, k, metric).tolist()
        assert fast == oracles.knn_brute(values, k, metric)

    a, b = configs
    # Both sum the same per-node ratios in node order: equal bit for bit.
    assert knn_jaccard_index(configs, k, metric=metric).per_pair[(0, 1)] == oracles.jaccard_brute(a, b, k, metric)
    report = second_order_cosine_index(configs, k, metric=metric)
    expected, zeros = oracles.second_order_brute_with_zeros(a, b, k, metric)
    assert abs(report.per_pair[(0, 1)] - expected) <= 1e-12
    assert report.metadata["zero_vector_scores"] == zeros
    assert abs(hausdorff_index(configs).per_pair[(0, 1)] - oracles.hausdorff_brute(a, b)) <= 1e-12
    # The rotation is procrustes_align's, checked in test_alignment; here
    # the row cosines, the zero-vector rule and the node mean are checked.
    report = aligned_cosine_index(configs)
    expected, zeros = oracles.aligned_cosine_brute(a, b, procrustes_align(a, b).q)
    assert abs(report.per_pair[(0, 1)] - expected) <= 1e-12
    assert report.metadata["zero_vector_scores"] == zeros


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocked_search_memory_stays_bounded():
    # Dense search would hold |V| x |V| float64, 512 MB (32 blocks of 2M
    # keys) at |V| = 8000. The blocked search holds two such blocks plus the
    # neighbor lists; when every key of a row ties, only its k lowest-id
    # ties are kept, in under four blocks. Wasserstein on near-copies is
    # certified by one block at a time, where scipy's dense cost matrix
    # takes the whole 512 MB.
    # Loaded before tracing: scipy's import is not the search's memory, and
    # run alone this test would otherwise count it.
    import scipy.spatial.distance  # noqa: F401

    n, dim, k = 8000, 16, 10
    rng = np.random.default_rng(21)
    configs = [rng.normal(size=(n, dim)) for _ in range(2)]
    near = [configs[0] + 1e-3 * rng.normal(size=(n, dim)) for _ in range(2)]
    block = 16 * 2**20
    # Fewer rows keep the all-ties sort short; its blocks are still full.
    tied = np.zeros((3000, dim))
    for blocks, run in (
        (3, lambda: knn_neighbors(configs[0], k, "cosine")),
        (3, lambda: knn_neighbors(configs[0], k, "euclidean")),
        (3, lambda: hausdorff_index(configs)),
        (3, lambda: wasserstein_index(near)),
        (4, lambda: knn_neighbors(tied, k, "cosine")),
    ):
        peak = _traced_peak(run)
        budget = blocks * block + n * k * 8
        assert peak < budget, f"peak {peak / 1e6:.1f} MB over {budget / 1e6:.1f} MB"


def test_small_searches_hold_cache_sized_blocks():
    # At |V| = 1000 one block of every row is 8 MB; blocks of 131 rows
    # (1 MB) keep kNN search, the Hausdorff screen and the Wasserstein
    # certificate, with every copy of the configurations, under 4 MB.
    n, dim, k = 1000, 32, 10
    rng = np.random.default_rng(22)
    configs = [rng.normal(size=(n, dim)) for _ in range(2)]
    near = [configs[0] + 1e-3 * rng.normal(size=(n, dim)) for _ in range(2)]
    for run in (
        lambda: knn_neighbors(configs[0], k, "cosine"),
        lambda: knn_neighbors(np.zeros((n, dim)), k, "cosine"),
        lambda: hausdorff_index(configs),
        lambda: wasserstein_index(near),
    ):
        peak = _traced_peak(run)
        assert peak < 4 * 2**20, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("width, rows", [
    (1000, 131),  # 2^17 keys: cache-sized
    (2048, 64),  # the widest row that still gets _GEMM_ROWS rows of 2^17 keys
    (2049, 1023),  # 2^21 keys
    (20_000, 104),
    (64 * 1000, 32),  # Hausdorff's exact-recompute tiles stay 1/64 of 2^21 keys
])
def test_row_blocks_are_cache_sized_while_they_keep_gemm_rows(width, rows):
    # A one-row tail joins the last block.
    blocks = baselines._row_blocks(5 * rows + 1, width)
    assert [b.stop - b.start for b in blocks] == [rows] * 4 + [rows + 1]
    assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]


def test_unknown_knn_metric_is_a_value_error():
    with pytest.raises(ValueError, match="metric must be one of"):
        knn_neighbors(_ensemble(0)[0], 2, metric="manhattan")
