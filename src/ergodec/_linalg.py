"""Shared dense linear algebra helpers.

One writer assembles every block-diagonal matrix through a layout.  The rest
work on the symmetrization D^{1/2} (-L) D^{-1/2} of a generator, where
D = diag(mu): that matrix equals D^{-1/2} A D^{-1/2} for an energy matrix A,
is symmetric, and a single eigendecomposition serves the semigroup, the
resolvent and the Yosida approximations at every parameter.
"""

from __future__ import annotations

import numpy as np

from .errors import NotRepresentableError


def _block(idx: np.ndarray):
    """The index of the square block of an n x n matrix at positions ``idx``.

    A contiguous run of positions gives ``(slice, slice)``, whose reads are
    views and whose in-place writes touch the matrix directly; any other
    positions give ``np.ix_(idx, idx)``, whose reads are copies.
    """
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1 and (np.diff(idx) == 1).all():
        run = slice(int(idx[0]), int(idx[-1]) + 1)
        return run, run
    return np.ix_(idx, idx)


def _assemble_blocks(out: np.ndarray, layout, blocks) -> np.ndarray:
    """Write each block at its layout positions of ``out``, in place.

    The blocks of a layout are disjoint, so on a zero buffer this is the
    exact block-diagonal sum, and a buffer can be reused for another set of
    blocks over the same layout.
    """
    for idx, block in zip(layout, blocks):
        out[_block(idx)] = block
    return out


def symmetrized_eig(matrix: np.ndarray, mu: np.ndarray):
    """Eigendecomposition of D^{-1/2} A D^{-1/2}, D = diag(mu).

    Returns ``(w, V, sqrt_mu)`` with ``w`` ascending, as ``eigh`` gives it:
    the functions of the operator below clip ``w`` at zero, and the energy
    floor of :func:`~ergodec.forms.classify` reads it unclipped.
    """
    sqrt_mu = np.sqrt(mu)
    sym = matrix / sqrt_mu[:, None]
    sym /= sqrt_mu[None, :]
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # entries hundreds of orders of magnitude apart
        raise NotRepresentableError(f"the eigendecomposition failed: {exc}") from None
    return w, v, sqrt_mu


#: Semigroup weights exp(-t w) below this are set to zero.
_WEIGHT_FLUSH = 1e-150


def _semigroup_weights(w: np.ndarray, t: float) -> np.ndarray:
    """exp(-t w) for w clipped at zero, with the weights below ``_WEIGHT_FLUSH`` set to zero."""
    e = np.exp(-t * np.clip(w, 0.0, None))
    e[e < _WEIGHT_FLUSH] = 0.0
    return e


def semigroup_from_eig(eig, t: float) -> np.ndarray:
    """e^{tL} from the symmetrized eigendecomposition of -L.

    The weights exp(-t w) below 1e-150 are set to zero, so the product never
    runs on subnormal numbers.  V is orthonormal, so by Cauchy-Schwarz this
    moves each entry (x, y) of e^{tL} by at most
    1e-150 * sqrt(mu(y) / mu(x)) <= 1e-150 * sqrt(max mu / min mu).  Next to
    a kept weight of order one, such as the weight 1 of the constants of a
    form without killing, that is far below roundoff unless mu spans
    hundreds of orders of magnitude.  A printed residual can move when every
    weight of a block is flushed, that is t times its smallest eigenvalue
    passes 345: the block is then 0 where its entries were below 1e-150.
    """
    w, v, sqrt_mu = eig
    core = (v * _semigroup_weights(w, t)) @ v.T
    core /= sqrt_mu[:, None]
    core *= sqrt_mu[None, :]
    return core


def semigroup_action(eig, t: float, x: np.ndarray, *, transpose: bool = False) -> np.ndarray:
    """e^{tL} x, or (e^{tL})^T x, from the symmetrized eigendecomposition of -L.

    e^{tL} = D^{-1/2} V diag(e) V^T D^{1/2} with the weights e of
    :func:`semigroup_from_eig`, so the action is V (e * V^T (sqrt_mu x)) /
    sqrt_mu, and the transpose swaps the two scalings: two matrix-vector
    products and no n x n temporary.
    """
    w, v, sqrt_mu = eig
    e = _semigroup_weights(w, t)
    if transpose:
        return (v @ (e * (v.T @ (x / sqrt_mu)))) * sqrt_mu
    return (v @ (e * (v.T @ (x * sqrt_mu)))) / sqrt_mu


def resolvent_from_eig(eig, alpha: float) -> np.ndarray:
    """(alpha - L)^{-1} from the symmetrized eigendecomposition of -L, w clipped at zero."""
    w, v, sqrt_mu = eig
    core = (v / (alpha + np.clip(w, 0.0, None))) @ v.T
    core /= sqrt_mu[:, None]
    core *= sqrt_mu[None, :]
    return core


def weighted_operator_norm(matrix: np.ndarray, weights: np.ndarray) -> float:
    """Operator norm on the weighted L2 space with the given point weights."""
    s = np.sqrt(weights)
    return float(np.linalg.norm(matrix * s[:, None] / s[None, :], 2))


def polynomial_matrix(matrix: np.ndarray, coefficients) -> np.ndarray:
    """Evaluate a polynomial (ascending power-basis coefficients) at a matrix."""
    coefficients = np.asarray(coefficients, dtype=float)
    n = matrix.shape[0]
    out = coefficients[-1] * np.eye(n)
    for c in coefficients[-2::-1]:
        out = out @ matrix + c * np.eye(n)
    return out


def chebyshev_matrix(matrix: np.ndarray, coefficients, bound: float) -> np.ndarray:
    """Evaluate a Chebyshev series on [-bound, bound] at a matrix (Clenshaw)."""
    coefficients = np.asarray(coefficients, dtype=float)
    n = matrix.shape[0]
    eye = np.eye(n)
    scaled = matrix / bound
    if len(coefficients) == 1:
        return coefficients[0] * eye
    b1 = np.zeros_like(scaled)
    b2 = np.zeros_like(scaled)
    for c in coefficients[:0:-1]:
        b1, b2 = c * eye + 2.0 * (scaled @ b1) - b2, b1
    return coefficients[0] * eye + scaled @ b1 - b2


def chebyshev_coefficients(func, bound: float, degree: int) -> np.ndarray:
    """Chebyshev interpolation coefficients of ``func`` on [-bound, bound]."""
    series = np.polynomial.chebyshev.Chebyshev.interpolate(
        func, degree, domain=[-bound, bound]
    )
    return series.coef

