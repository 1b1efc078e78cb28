"""Orthogonal Procrustes alignment between two embedding spaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAGNITUDE_WINDOW, magnitude_scale, matrix_values
from .errors import ShapeMismatch


@dataclass(frozen=True)
class ProcrustesAlignment:
    """Orthogonal map from one configuration's space onto another's.

    ``q`` is d x d orthogonal. ``degenerate`` flags a rank-deficient
    cross matrix, where the optimum is non-unique and q is the
    deterministic choice made by the SVD's sign convention.
    """

    q: np.ndarray
    degenerate: bool = False


def procrustes_align(source, target) -> ProcrustesAlignment:
    """Solve argmin over orthogonal Q of ||source @ Q - target||_F.

    The optimum is U V^T from the SVD of the d x d cross matrix
    source^T @ target, which costs O(|V| d^2 + d^3) and never forms a
    |V| x |V| product. The cross matrix is summed by ``np.einsum``, not
    BLAS, whose sum over |V| differs in the last bits between one thread
    and two, so q does not depend on the BLAS thread count. When the cross
    matrix leaves the square of ``MAGNITUDE_WINDOW`` (its entries are sums
    of products of two entries), each input is divided by its
    :func:`~gramstab.core.magnitude_scale` and the cross matrix summed
    again: q does not depend on the units of either input.

    Parameters
    ----------
    source, target : matrix-like of identical shape (|V|, d)

    Raises
    ------
    ShapeMismatch
        If the two inputs differ in shape.
    """
    a = matrix_values(source)
    b = matrix_values(target)
    if a.shape != b.shape:
        raise ShapeMismatch(
            f"cannot align shapes {a.shape} and {b.shape}; equal rows and "
            "columns are required"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN is rescaled below
        cross = np.einsum("ij,ik->jk", a, b)
    low, high = MAGNITUDE_WINDOW
    if not low * low <= np.maximum(cross.max(), -cross.min()) <= high * high:
        scales = magnitude_scale(a), magnitude_scale(b)
        if scales != (1.0, 1.0):
            cross = np.einsum("ij,ik->jk", a / scales[0], b / scales[1])
    u, s, vt = np.linalg.svd(cross)
    q = u @ vt
    # numpy's matrix_rank tolerance; a zero cross matrix (every s is 0) meets it.
    degenerate = bool(s[-1] <= s[0] * max(cross.shape) * np.finfo(np.float64).eps)
    return ProcrustesAlignment(q=q, degenerate=degenerate)
