"""Shared dense linear algebra helpers.

Every set of disjoint blocks (invariant sets, quotient blocks, fibers) is a
:class:`StackedLayout`, which reads and writes block-diagonal matrices a
size at a time through :func:`_stack_index`; :meth:`StackedLayout.assemble`
writes them all.  The rest work on the symmetrization D^{1/2} (-L) D^{-1/2}
of a generator, where D = diag(mu): that matrix equals D^{-1/2} A D^{-1/2}
for an energy matrix A, is symmetric, and a single eigendecomposition
serves the semigroup, the resolvent and the Yosida approximations at every
parameter.

The functions of an eigendecomposition take one (s, s) matrix or a stack
(k, s, s) of them.  :class:`StackedLayout` groups the blocks of a layout by
size, so the blocks of one size take one ``eigh`` and one product each;
numpy runs LAPACK and BLAS on every matrix of a stack as on a single one,
so each block gets the bits its own call would give.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NotRepresentableError

#: The most entries of a matrix that :func:`_dropped_couplings` copies at a time (1 MiB of floats).
_ROW_CHUNK = 2 ** 17


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


def _stack_index(positions: np.ndarray):
    """The index of the (k, s, s) stack of square blocks of an n x n matrix at ``positions``, (k, s).

    A stack of one is the index of :func:`_block` behind a new axis, so a
    contiguous run reads as a view and is written in place; more blocks read
    as a copy.
    """
    if len(positions) == 1:
        return (None, *_block(positions[0]))
    return positions[:, :, None], positions[:, None, :]


class StackedLayout:
    """Disjoint blocks of positions: ``blocks``, read-only and in layout order, grouped by size.

    ``stacks`` holds one ``(members, positions)`` pair per block size, in the
    order the sizes first appear: the layout numbers of the k blocks of that
    size, ascending, and their (k, s) positions.  Arrays computed per stack
    are put back in layout order by :meth:`blockwise` and :meth:`concatenate`.
    ``block_of``, built on first use, holds the layout number of the block of
    each position when the blocks cover 0, ..., n - 1; the supports of a
    separated family may leave points out, and are still assembled.
    """

    def __init__(self, layout):
        self.blocks = tuple(np.array(idx, dtype=int) for idx in layout)
        for idx in self.blocks:
            idx.flags.writeable = False
        groups = {}
        for b, idx in enumerate(self.blocks):
            groups.setdefault(len(idx), []).append(b)
        self.count = len(self.blocks)
        self.stacks = tuple(
            (np.array(members), np.array([self.blocks[b] for b in members], dtype=int).reshape(-1, s))
            for s, members in groups.items()
        )
        starts = np.cumsum([0] + [len(idx) for idx in self.blocks])
        self._offsets = tuple(starts[m][:, None] + np.arange(p.shape[1]) for m, p in self.stacks)

    @cached_property
    def block_of(self) -> np.ndarray:
        out = np.empty(sum(len(idx) for idx in self.blocks), dtype=int)
        for members, positions in self.stacks:
            out[positions] = members[:, None]
        return out

    def stack(self, arrays) -> tuple:
        """The arrays of the blocks, in layout order, stacked per size; a stack of one is a view."""
        return tuple(arrays[m[0]][None] if len(m) == 1 else np.stack([arrays[b] for b in m])
                     for m, _ in self.stacks)

    def assemble(self, out: np.ndarray, blocks, weights=None) -> np.ndarray:
        """Write the blocks, in layout order and each times its entry of ``weights`` if given, at
        their positions of ``out``, a stack at a time and in place.

        On a zero buffer this is the exact block-diagonal sum, and a buffer
        can be reused for another set of blocks over the same layout.
        """
        for (members, positions), stack in zip(self.stacks, self.stack(blocks)):
            out[_stack_index(positions)] = (stack if weights is None
                                            else weights[members][:, None, None] * stack)
        return out

    def blockwise(self, values) -> np.ndarray:
        """One value per block, in layout order, from the (k, ...) arrays of the stacks."""
        out = np.empty((self.count, *values[0].shape[1:]), dtype=values[0].dtype)
        for (members, _), v in zip(self.stacks, values):
            out[members] = v
        return out

    def concatenate(self, values) -> np.ndarray:
        """The (k, s) rows of the stacks concatenated in layout order."""
        out = np.empty(sum(v.size for v in values), dtype=values[0].dtype)
        for offsets, v in zip(self._offsets, values):
            out[offsets] = v
        return out


def _dropped_couplings(matrix: np.ndarray, layout: StackedLayout) -> np.ndarray:
    """Per position, the sum of its row of the matrix off its own block of ``layout``.

    Each row is summed as a copy with its block's entries set to 0, so on the
    invariant blocks of a form the sum is exactly 0 unless
    :func:`~ergodec.forms.invariant_sets` dropped a coupling.  Rows are read
    ``_ROW_CHUNK`` entries (at least one row) at a time; no row's sum changes.
    """
    n = len(matrix)
    dropped = np.zeros(n)
    if layout.count > 1:
        step = max(1, _ROW_CHUNK // n)
        for lo in range(0, n, step):
            own = layout.block_of[lo:lo + step, None] == layout.block_of[None, :]
            dropped[lo:lo + step] = np.where(own, 0.0, matrix[lo:lo + step]).sum(axis=1)
    return dropped


def _split_blocks(matrix: np.ndarray, positions: np.ndarray, dropped: np.ndarray,
                  scale=1.0) -> np.ndarray:
    """The (k, s, s) blocks at ``positions`` of the matrix split over its blocks, each over its
    ``scale``; a new array.

    The couplings off the blocks, ``dropped`` per position (see
    :func:`_dropped_couplings`), join the diagonal, so the row sums are those
    of the matrix; a diagonal entry left below 0 by a row sum inside the
    margins of validation is set to 0.  A block that dropped nothing keeps
    its diagonal.
    """
    scale = np.broadcast_to(np.asarray(scale, dtype=float), positions.shape[:1])
    blocks = matrix[_stack_index(positions)]
    if np.may_share_memory(blocks, matrix):  # a view of a contiguous run
        blocks = blocks / scale[:, None, None]
    else:  # a copy, divided where it is
        blocks /= scale[:, None, None]
    lost = dropped[positions]
    split = np.flatnonzero(lost.any(axis=1))
    if len(split):
        b, d = split[:, None], np.arange(positions.shape[1])
        blocks[b, d, d] = np.maximum(blocks[b, d, d] + lost[split] / scale[b], 0.0)
    return blocks


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of the rows of two (..., s) arrays, each with the bits of ``np.dot``.

    ``np.matmul`` of a contiguous row by a contiguous column calls the same
    BLAS dot as ``np.dot``; on other strides it sums in its own loop, as
    ``np.einsum`` does, in another order.  A fancy-indexed gather such as
    ``f[:, positions]`` need not be contiguous, so both are made so.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def symmetrized_eig(matrix: np.ndarray, mu: np.ndarray):
    """Eigendecomposition of D^{-1/2} A D^{-1/2}, D = diag(mu), or of each matrix of a stack.

    Returns ``(w, V, sqrt_mu)`` with ``w`` ascending, as ``eigh`` gives it:
    the functions of the operator below clip ``w`` at zero, and the energy
    floor of :func:`~ergodec.forms.classify` reads it unclipped.
    """
    sqrt_mu = np.sqrt(mu)
    sym = matrix / sqrt_mu[..., :, None]
    sym /= sqrt_mu[..., None, :]
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


def _conjugated(weighted: np.ndarray, v: np.ndarray, sqrt_mu: np.ndarray) -> np.ndarray:
    """D^{-1/2} (V diag(e)) V^T D^{1/2}, from the columns of V already weighted by e."""
    core = weighted @ np.swapaxes(v, -1, -2)
    core /= sqrt_mu[..., :, None]
    core *= sqrt_mu[..., None, :]
    return core


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
    return _conjugated(v * _semigroup_weights(w, t)[..., None, :], v, sqrt_mu)


def semigroup_action(eig, t: float, x: np.ndarray, *, transpose: bool = False) -> np.ndarray:
    """e^{tL} x, or (e^{tL})^T x, from the symmetrized eigendecomposition of -L.

    e^{tL} = D^{-1/2} V diag(e) V^T D^{1/2} with the weights e of
    :func:`semigroup_from_eig`, so the action is V (e * V^T (sqrt_mu x)) /
    sqrt_mu, and the transpose swaps the two scalings: two matrix-vector
    products and no n x n temporary.  On a stack, ``x`` holds one row per
    matrix.
    """
    w, v, sqrt_mu = eig
    e = _semigroup_weights(w, t)
    y = x / sqrt_mu if transpose else x * sqrt_mu
    y = e * np.matmul(np.swapaxes(v, -1, -2), y[..., None])[..., 0]
    y = np.matmul(v, y[..., None])[..., 0]
    return y * sqrt_mu if transpose else y / sqrt_mu


def resolvent_from_eig(eig, alpha: float) -> np.ndarray:
    """(alpha - L)^{-1} from the symmetrized eigendecomposition of -L, w clipped at zero."""
    w, v, sqrt_mu = eig
    return _conjugated(v / (alpha + np.clip(w, 0.0, None))[..., None, :], v, sqrt_mu)


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

