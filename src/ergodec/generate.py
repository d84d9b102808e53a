"""Reproducible random instances with a prescribed component structure."""

from __future__ import annotations

import numpy as np

from .errors import InvalidShapeError
from .forms import DirichletForm
from .spaces import FiniteMeasureSpace


def random_form(
    seed,
    n: int,
    components: int,
    killing_prob: float = 0.0,
    density: float = 0.5,
    *,
    probability: bool = False,
) -> DirichletForm:
    """Draw a random Markovian form with exactly ``components`` invariant blocks.

    Each block is built as a random spanning tree plus extra edges appearing
    with probability ``density``; edge weights are uniform in [0.1, 2] so
    that no coupling sits near the component threshold.  Points then get a
    random permutation, so block membership is scattered across the point
    order.  Killing weights appear independently per point with probability
    ``killing_prob``.  The same seed always produces the same instance.

    The extra edges of a block are drawn as arrays, in the order and from the
    stream positions of a pair-by-pair loop, so every seed gives the same
    form as earlier versions that ran that loop, and a ``Generator`` passed
    as ``seed`` is left at the same stream position.  The edges are kept as
    index and weight arrays until the permutation is drawn, then written
    once at their permuted positions into the one n x n array that becomes
    the form's matrix: no permuted copy is made.

    Parameters
    ----------
    seed : int or numpy Generator
    n : int
        Number of points.
    components : int
        Number of minimal invariant blocks; requires 1 <= components <= n.
    killing_prob : float
        Per-point probability of a positive killing weight.
    density : float
        Probability of each non-tree edge inside a block.
    probability : bool
        Normalize the total mass to one.

    Raises
    ------
    InvalidShapeError
        If the requested shape, n x n matrix included, is not realizable.
    """
    rng = np.random.default_rng(seed) if isinstance(seed, (int, np.integer)) else seed
    if not 1 <= components <= n:
        raise InvalidShapeError(f"need 1 <= components <= n, got components={components}, n={n}")
    if n * n * 8 > np.iinfo(np.intp).max:
        raise InvalidShapeError(f"n={n} points need an n x n matrix larger than any numpy array")
    jump = np.zeros((n, n))  # becomes the form's matrix; allocated before any draw

    sizes = np.ones(components, dtype=int)
    sizes += rng.multinomial(n - components, np.full(components, 1.0 / components))

    rows, cols, weights = [], [], []  # the edges, in point order before the permutation
    offset = 0
    for size in sizes:
        parents = np.empty(size - 1, dtype=np.intp)
        tree_weights = np.empty(size - 1)
        for i in range(1, size):
            parents[i - 1] = rng.integers(0, i)
            tree_weights[i - 1] = rng.uniform(0.1, 2.0)
        rows.append(offset + np.arange(1, size))
        cols.append(offset + parents)
        weights.append(tree_weights)
        for extra_rows, extra_cols, extra_weights in _extra_edges(rng, size, parents, density):
            rows.append(offset + extra_rows)
            cols.append(offset + extra_cols)
            weights.append(extra_weights)
        offset += size

    killing = np.where(rng.uniform(size=n) < killing_prob, rng.uniform(0.1, 2.0, size=n), 0.0)
    mu = rng.uniform(0.1, 2.0, size=n)
    if probability:
        mu = mu / mu.sum()

    perm = rng.permutation(n)
    position = np.empty(n, dtype=np.intp)
    position[perm] = np.arange(n)  # point perm[p] lands at p
    weights = np.concatenate(weights)
    rows = position[np.concatenate(rows)]
    cols = position[np.concatenate(cols)]
    jump[rows, cols] = weights
    jump[cols, rows] = weights
    killing = killing[perm]

    space = FiniteMeasureSpace(tuple(f"p{i}" for i in range(n)), mu)
    return DirichletForm._from_symmetric_kernel(space, jump, killing)


#: Candidate pairs whose draws are replayed at once; it bounds the raw draws held to 2**15.
_CHUNK = 1 << 14


def _extra_edges(rng, size: int, parents, density: float):
    """Rows, columns and weights of the extra edges of a block, a chunk of pairs at a time.

    The candidates are the pairs i < j of the block off its tree (the edges
    ``(parents[i - 1], i)``), in row-major order.  Consumes exactly the
    stream of the scalar loop that visits them in that order, drawing a coin
    ``rng.uniform()`` for each and a weight ``rng.uniform(0.1, 2.0)`` after
    each coin below ``density``.  A draw is a weight exactly when the draw
    before it is a coin that hit, so inside a run of draws below ``density``
    the first is a coin and the roles alternate; the roles are read from the
    hits alone.  Each chunk of candidates starts with a coin.  Its raw draws
    fix the roles; the state is then restored and the consumed draws are
    taken again through ``uniform``, so that the weights are numpy's own
    values and the stream ends where the loop ends.
    """
    count = (size - 1) * (size - 2) // 2
    row_start = np.arange(size) * (2 * size - 1 - np.arange(size)) // 2  # pairs i < j before row i
    # A candidate's place among all pairs is its index plus the tree edges before it, which
    # a right search counts in the tree edges' sorted places less the tree edges before each.
    skips = np.sort(row_start[parents] + np.arange(1, size) - parents - 1) - np.arange(size - 1)
    for start in range(0, count, _CHUNK):
        candidates = min(_CHUNK, count - start)
        state = rng.bit_generator.state
        # A candidate takes at most two draws.
        hits = np.flatnonzero(rng.random(2 * candidates) < density)
        run_start = np.ones(len(hits), dtype=bool)
        run_start[1:] = hits[1:] != hits[:-1] + 1
        first = np.maximum.accumulate(np.where(run_start, hits, 0))
        coins = hits[(hits - first) % 2 == 0]
        # A coin's candidate: the draws before it, less the weight of each coin hit before it.
        candidate = coins - np.arange(len(coins))
        accepted = np.searchsorted(candidate, candidates)
        rng.bit_generator.state = state
        draws = rng.uniform(0.1, 2.0, size=candidates + accepted)
        pair = start + candidate[:accepted]
        pair += np.searchsorted(skips, pair, side="right")
        rows = np.searchsorted(row_start, pair, side="right") - 1
        yield rows, pair - row_start[rows] + rows + 1, draws[coins[:accepted] + 1]
