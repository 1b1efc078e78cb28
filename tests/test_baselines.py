"""Comparison indices against brute-force oracles."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramstab import (
    ConfigurationEnsemble,
    EmbeddingMatrix,
    InstanceTooLarge,
    KTooLarge,
    NeighborParams,
    aligned_cosine_index,
    apply_isometry,
    hausdorff_index,
    knn_jaccard_index,
    knn_neighbors,
    random_orthogonal,
    second_order_cosine_index,
    wasserstein_index,
)

import oracles


def _ensemble(seed, n=12, dim=3, n_configs=3, noise=0.3):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, dim))
    configs = [base + rng.normal(0.0, noise, size=base.shape) for _ in range(n_configs)]
    return configs, ConfigurationEnsemble(tuple(EmbeddingMatrix(c) for c in configs))


def test_knn_matches_brute_force_cosine_and_euclidean():
    configs, _ = _ensemble(0, n=20)
    for metric in ("cosine", "euclidean"):
        fast = knn_neighbors(configs[0], NeighborParams(k=5, metric=metric))
        slow = oracles.knn_brute(configs[0], 5, metric)
        assert fast.indices.tolist() == slow


def test_knn_breaks_ties_by_ascending_id():
    # Four copies of the same point: all cross-similarities tie at 1, so
    # each node's neighbor list is the other ids in ascending order.
    values = np.tile(np.array([[1.0, 2.0]]), (4, 1))
    result = knn_neighbors(values, NeighborParams(k=3, metric="cosine"))
    assert result.indices.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    result = knn_neighbors(values, NeighborParams(k=3, metric="euclidean"))
    assert result.indices.tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]


def test_knn_never_contains_self():
    configs, _ = _ensemble(1, n=15)
    result = knn_neighbors(configs[0], NeighborParams(k=14))
    for i, row in enumerate(result.indices):
        assert i not in row


def test_k_bounds():
    configs, _ = _ensemble(2, n=8)
    with pytest.raises(KTooLarge):
        knn_neighbors(configs[0], NeighborParams(k=8))  # k == |V|
    with pytest.raises(KTooLarge):
        NeighborParams(k=0)


def test_jaccard_matches_brute_force():
    configs, ens = _ensemble(3, n=18, n_configs=3)
    report = knn_jaccard_index(ens, NeighborParams(k=4))
    for (l, m), score in report.per_pair.items():
        expected = oracles.jaccard_brute(configs[l], configs[m], 4)
        assert abs(score - expected) <= 1e-12
    assert report.aggregate == pytest.approx(np.mean(list(report.per_pair.values())))


def test_second_order_matches_brute_force():
    configs, ens = _ensemble(4, n=16, n_configs=3)
    report = second_order_cosine_index(ens, NeighborParams(k=4))
    for (l, m), score in report.per_pair.items():
        expected = oracles.second_order_brute(configs[l], configs[m], 4)
        assert abs(score - expected) <= 1e-12


def test_hausdorff_matches_brute_force():
    configs, ens = _ensemble(5, n=14, n_configs=3)
    report = hausdorff_index(ens)
    for (l, m), score in report.per_pair.items():
        expected = oracles.hausdorff_brute(configs[l], configs[m])
        assert abs(score - expected) <= 1e-12


def test_wasserstein_matches_enumeration():
    configs, ens = _ensemble(6, n=6, n_configs=3)
    report = wasserstein_index(ens)
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
    ens = ConfigurationEnsemble((EmbeddingMatrix(a), EmbeddingMatrix(b)))
    fast = wasserstein_index(ens).per_pair[(0, 1)]
    assert abs(fast - oracles.wasserstein_brute(a, b)) <= 1e-10


def test_wasserstein_instance_cap():
    rng = np.random.default_rng(7)
    big = rng.normal(size=(11, 2))
    ens = ConfigurationEnsemble((EmbeddingMatrix(big), EmbeddingMatrix(big.copy())))
    with pytest.raises(InstanceTooLarge):
        wasserstein_index(ens, max_nodes=10)


def test_aligned_cosine_is_one_under_pure_rotation():
    rng = np.random.default_rng(8)
    base = rng.normal(size=(25, 5))
    rotated = apply_isometry(base, random_orthogonal(5, seed=9))
    ens = ConfigurationEnsemble((EmbeddingMatrix(base), rotated))
    report = aligned_cosine_index(ens)
    assert report.per_pair[(0, 1)] == pytest.approx(1.0, abs=1e-10)


def test_aligned_cosine_penalizes_noise():
    configs, ens = _ensemble(10, n=30, dim=4, noise=0.5)
    report = aligned_cosine_index(ens)
    for score in report.per_pair.values():
        assert score < 1.0 - 1e-6


def test_neighborhood_indices_survive_shared_relabel():
    # Relabeling nodes the same way in both configurations permutes
    # neighbor sets consistently, so set-overlap scores cannot change.
    configs, _ = _ensemble(11, n=12, n_configs=2)
    sigma = np.random.default_rng(12).permutation(12)
    relabeled = []
    for c in configs:
        out = np.empty_like(c)
        out[sigma] = c
        relabeled.append(out)
    ens_a = ConfigurationEnsemble(tuple(EmbeddingMatrix(c) for c in configs))
    ens_b = ConfigurationEnsemble(tuple(EmbeddingMatrix(c) for c in relabeled))
    params = NeighborParams(k=3)
    assert knn_jaccard_index(ens_a, params).aggregate == pytest.approx(
        knn_jaccard_index(ens_b, params).aggregate, abs=1e-12
    )
    assert second_order_cosine_index(ens_a, params).aggregate == pytest.approx(
        second_order_cosine_index(ens_b, params).aggregate, abs=1e-12
    )


def test_pairwise_report_shape():
    _, ens = _ensemble(13, n_configs=4)
    report = hausdorff_index(ens)
    assert set(report.per_pair) == {(l, m) for l in range(4) for m in range(l + 1, 4)}
    assert report.n_configs == 4
    assert "l < m" in report.pair_convention


def test_identical_configs_are_perfectly_stable():
    rng = np.random.default_rng(14)
    base = rng.normal(size=(10, 3))
    ens = ConfigurationEnsemble((EmbeddingMatrix(base), EmbeddingMatrix(base.copy())))
    assert knn_jaccard_index(ens, NeighborParams(k=3)).aggregate == 1.0
    assert hausdorff_index(ens).aggregate == 0.0
    assert wasserstein_index(ens).aggregate == 0.0
    assert second_order_cosine_index(ens, NeighborParams(k=3)).aggregate == pytest.approx(
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
