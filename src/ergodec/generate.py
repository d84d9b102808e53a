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
    as ``seed`` is left at the same stream position.

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

    sizes = np.ones(components, dtype=int)
    sizes += rng.multinomial(n - components, np.full(components, 1.0 / components))

    jump = np.zeros((n, n))
    offset = 0
    for size in sizes:
        block = jump[offset:offset + size, offset:offset + size]
        for i in range(1, size):
            j = int(rng.integers(0, i))
            w = rng.uniform(0.1, 2.0)
            block[i, j] = block[j, i] = w
        _add_extra_edges(rng, block, density)
        offset += size

    killing = np.where(rng.uniform(size=n) < killing_prob, rng.uniform(0.1, 2.0, size=n), 0.0)
    mu = rng.uniform(0.1, 2.0, size=n)
    if probability:
        mu = mu / mu.sum()

    perm = rng.permutation(n)
    jump = jump[np.ix_(perm, perm)]
    killing = killing[perm]

    space = FiniteMeasureSpace(tuple(f"p{i}" for i in range(n)), mu)
    return DirichletForm.from_jump_kernel(space, jump, killing)


def _add_extra_edges(rng, block, density: float) -> None:
    """Join each pair of ``block`` without an edge with probability ``density``, in place.

    Consumes exactly the stream of the scalar loop that visits those pairs in
    row-major order, drawing a coin ``rng.uniform()`` for each and a weight
    ``rng.uniform(0.1, 2.0)`` after each coin below ``density``.  A draw is a
    weight exactly when the draw before it is a coin that hit, so inside a
    run of draws below ``density`` the first is a coin and the roles
    alternate.  The raw draws fix the roles; the state is then restored and
    the consumed draws are taken again through ``uniform`` so that the
    weights are numpy's own values and the stream ends where the loop ends.
    """
    rows, cols = np.triu_indices(len(block), 1)
    free = block[rows, cols] == 0.0
    rows, cols = rows[free], cols[free]
    count = len(rows)
    if count == 0:
        return
    state = rng.bit_generator.state
    hit = rng.random(2 * count) < density  # each pair takes at most two draws
    position = np.arange(2 * count)
    run_start = np.maximum.accumulate(np.where(hit, 0, position + 1))
    coin_hit = hit & ((position - run_start) % 2 == 0)
    coin = np.ones(2 * count, dtype=bool)
    coin[1:] = ~coin_hit[:-1]
    coins = np.flatnonzero(coin)[:count]
    accepted = coin_hit[coins]
    consumed = int(coins[-1]) + 1 + int(accepted[-1])
    rng.bit_generator.state = state
    weights = rng.uniform(0.1, 2.0, size=consumed)[coins[accepted] + 1]
    rows, cols = rows[accepted], cols[accepted]
    block[rows, cols] = weights
    block[cols, rows] = weights
