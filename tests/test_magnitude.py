"""Every index under a change of units: one magnitude rule for all six.

Multiplying an ensemble by c must leave the Gram index and the three
cosine-type baselines (both metrics, with and without preprocessing)
unchanged, counters included, and must multiply the Hausdorff and
Wasserstein distances by c. c = 2^k spans almost the whole float64
range; the pinned decimal scales are the ones that broke before the
rule existed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramstab import (
    aligned_cosine_index,
    ggi_index,
    hausdorff_index,
    knn_jaccard_index,
    random_graph,
    second_order_cosine_index,
    wasserstein_index,
)

_N, _DIM, _K = 30, 5, 4
_RNG = np.random.default_rng(40)
_BASE = _RNG.normal(size=(_N, _DIM))
CONFIGS = [_BASE + _RNG.normal(0.0, 0.3, size=_BASE.shape) for _ in range(3)]
GRAPH = random_graph(_N, 4.0, 40)


def _scale_free(configs):
    """Each scale-free index as (scores, counters)."""
    report = ggi_index(iter(configs), GRAPH)
    out = {"ggi": (report.scores, report.metadata["degenerate_rows"])}
    for pre in (False, True):
        for metric in ("cosine", "euclidean"):
            for fn in (knn_jaccard_index, second_order_cosine_index):
                report = fn(configs, _K, metric=metric, preprocess=pre)
                out[fn.__name__, metric, pre] = (
                    list(report.per_pair.values()),
                    report.metadata.get("zero_vector_scores"),
                )
        report = aligned_cosine_index(configs, preprocess=pre)
        out["aligned", pre] = (
            list(report.per_pair.values()),
            (report.metadata["zero_vector_scores"], report.metadata["degenerate_alignments"]),
        )
    return out


def _distances(configs):
    return {
        (fn.__name__, pre): np.array(list(fn(configs, preprocess=pre).per_pair.values()))
        for fn in (hausdorff_index, wasserstein_index)
        for pre in (False, True)
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
    for key, (scores, counters) in UNSCALED.items():
        np.testing.assert_allclose(got[key][0], scores, rtol=0, atol=1e-9, err_msg=str(key))
        assert got[key][1] == counters, key
    if len(set(scales)) == 1:
        # Preprocessed clouds are unit rows, so their distances do not move.
        for (name, pre), dists in _distances(scaled).items():
            unit = 1.0 if pre else scales[0]
            np.testing.assert_allclose(
                dists, unit * UNSCALED_DISTANCES[name, pre], rtol=1e-9, err_msg=name
            )


@pytest.mark.parametrize("c", [1e-150, 1e-100, 1e100, 1e150])
def test_raw_ggi_scales_with_the_square_of_the_units(c):
    # Without preprocessing the scores are raw inner products, c^2 times
    # the unscaled ones; their standard deviation must follow, neither
    # underflowing to a "perfectly stable" 0.0 nor overflowing to inf.
    raw = ggi_index(iter(CONFIGS), GRAPH, preprocess=False).index_value
    scaled = ggi_index(iter([c * x for x in CONFIGS]), GRAPH, preprocess=False).index_value
    assert raw > 0.0
    assert scaled == pytest.approx(c * c * raw, rel=1e-9)

