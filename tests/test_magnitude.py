"""Every index under a change of units: one magnitude rule for all six.

Multiplying an ensemble by c must leave the Gram index, the three
cosine-type baselines (both metrics, on the configurations and on
center-normalized copies of them) and the public kNN and Procrustes
helpers they call unchanged, counters included, and must multiply the
Hausdorff and Wasserstein distances by c. c = 2^k spans
almost the whole float64 range; the pinned decimal scales are the ones
that broke before the rule existed.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    GraphTopology,
    aligned_cosine_index,
    ggi_index,
    hausdorff_index,
    knn_jaccard_index,
    knn_neighbors,
    procrustes_align,
    random_graph,
    second_order_cosine_index,
    wasserstein_index,
)
from gramstab.core import center_normalize_inplace
from gramstab.ggi import dispersion

_N, _DIM, _K = 30, 5, 4
_RNG = np.random.default_rng(40)
_BASE = _RNG.normal(size=(_N, _DIM))
CONFIGS = [_BASE + _RNG.normal(0.0, 0.3, size=_BASE.shape) for _ in range(3)]
GRAPH = random_graph(_N, 4.0, 40)


def _centered(configs):
    """Center-normalized copies, as `baseline --preprocess` scores them."""
    work = [np.array(c, dtype=np.float64) for c in configs]
    for idx, values in enumerate(work):
        center_normalize_inplace(values, idx)
    return work


def _scale_free(configs):
    """Each scale-free index as (scores, counters, absolute tolerance), and
    so each kNN helper's lists (exact) and Procrustes map (to 1e-12) with
    its degenerate flag."""
    report = ggi_index(iter(configs), GRAPH)
    out = {"ggi": (report.scores, report.degenerate_rows, 1e-9)}
    for metric in ("cosine", "euclidean"):
        lists = [knn_neighbors(c, _K, metric) for c in configs]
        out["knn_neighbors", metric] = (lists, None, 0.0)
    for l, m in ((0, 1), (0, 2), (1, 2)):
        alignment = procrustes_align(configs[l], configs[m])
        out["procrustes_align", l, m] = (alignment.q, alignment.degenerate, 1e-12)
    for pre, ensemble in ((False, configs), (True, _centered(configs))):
        for metric in ("cosine", "euclidean"):
            for fn in (knn_jaccard_index, second_order_cosine_index):
                report = fn(ensemble, _K, metric=metric)
                out[fn.__name__, metric, pre] = (
                    list(report.per_pair.values()),
                    report.metadata.get("zero_vector_scores"),
                    1e-9,
                )
        report = aligned_cosine_index(ensemble)
        out["aligned", pre] = (
            list(report.per_pair.values()),
            (report.metadata["zero_vector_scores"], report.metadata["degenerate_alignments"]),
            1e-9,
        )
    return out


def _distances(configs):
    ensembles = {False: configs, True: _centered(configs)}
    return {
        (fn.__name__, pre): np.array(list(fn(ensemble).per_pair.values()))
        for fn in (hausdorff_index, wasserstein_index)
        for pre, ensemble in ensembles.items()
    }


UNSCALED = _scale_free(CONFIGS)
UNSCALED_DISTANCES = _distances(CONFIGS)


@settings(max_examples=25, deadline=None)
@given(scales=st.integers(min_value=-1000, max_value=1000).map(lambda k: (2.0**k,) * 3))
@example(scales=(1e16,) * 3)
@example(scales=(1e-16,) * 3)
@example(scales=(1e160,) * 3)
@example(scales=(1e-160,) * 3)
@example(scales=(1e300,) * 3)
@example(scales=(1e-300,) * 3)
@example(scales=(1e160, 1e-170, 1e-300))
def test_indices_follow_a_change_of_units(scales):
    scaled = [c * s for c, s in zip(CONFIGS, scales)]
    got = _scale_free(scaled)
    for key, (scores, counters, atol) in UNSCALED.items():
        np.testing.assert_allclose(got[key][0], scores, rtol=0, atol=atol, err_msg=str(key))
        assert got[key][1] == counters, key
    if len(set(scales)) == 1:
        # Preprocessed clouds are unit rows, so their distances do not move.
        for (name, pre), dists in _distances(scaled).items():
            unit = 1.0 if pre else scales[0]
            np.testing.assert_allclose(
                dists, unit * UNSCALED_DISTANCES[name, pre], rtol=1e-9, err_msg=name
            )


def test_tiny_cosines_keep_their_spread():
    # Exact cosines of 1e-170, 2e-170 and 4e-170: squared, their deviations
    # underflow, so an unscaled spread would read a "perfectly stable" 0.0.
    graph = GraphTopology.from_pairs(3, np.array([[0, 1]]))[0]
    ts = [1e-170, 2e-170, 4e-170]
    report = ggi_index(
        iter([np.array([[1.0, 0.0], [t, 1.0], [-1.0 - t, -1.0]]) for t in ts]), graph
    )
    assert report.scores.tolist() == ts
    scale = 2.0**-600
    assert report.index_value == np.std(np.array(ts) / scale) * scale
    assert report.index_value == 1.247219128924647e-170
    assert dispersion(np.array(ts)) > 0.0
