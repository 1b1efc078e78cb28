"""Orthogonal Procrustes alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramstab import ShapeMismatch, procrustes_align, random_orthogonal


def test_recovers_planted_rotation():
    rng = np.random.default_rng(0)
    source = rng.normal(size=(40, 6))
    planted = random_orthogonal(6, seed=1)
    target = source @ planted
    result = procrustes_align(source, target)
    assert np.linalg.norm(source @ result.q - target) <= 1e-10
    np.testing.assert_allclose(result.q, planted, atol=1e-10)
    assert not result.degenerate


def test_solution_is_orthogonal():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(25, 5))
    b = rng.normal(size=(25, 5))
    q = procrustes_align(a, b).q
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_no_orthogonal_map_beats_the_solution(seed):
    # Optimality spot check: random orthogonal challengers never achieve
    # a smaller Frobenius residual than the SVD solution.
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(15, 3))
    b = rng.normal(size=(15, 3))
    best = np.linalg.norm(a @ procrustes_align(a, b).q - b)
    for trial in range(5):
        challenger = random_orthogonal(3, seed=[seed, trial])
        assert np.linalg.norm(a @ challenger - b) >= best - 1e-9


def test_degenerate_flag_on_rank_collapse():
    # Both clouds on a line: the crossmatrix is rank 1 in 3-D, so the
    # rotation around that line is arbitrary and the result is flagged.
    t = np.linspace(-1, 1, 20)[:, None]
    a = np.hstack([t, np.zeros((20, 2))])
    result = procrustes_align(a, a)
    assert result.degenerate
    assert np.linalg.norm(a @ result.q - a) <= 1e-12


def test_degenerate_flag_on_all_zero_clouds():
    # The cross matrix is zero, so every rotation is optimal.
    zeros = np.zeros((6, 3))
    assert procrustes_align(zeros, zeros).degenerate


def test_dimension_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        procrustes_align(np.ones((5, 2)), np.ones((5, 3)))
    with pytest.raises(ShapeMismatch):
        procrustes_align(np.ones((5, 2)), np.ones((6, 2)))
