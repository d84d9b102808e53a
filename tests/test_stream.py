"""The seed-0 stream against ``numpy.random.default_rng(0)``, bit for bit."""

import numpy as np
import pytest

from ergodec import (
    assemble_lp,
    carre_decomposition,
    decompose,
    random_form,
    superpose,
    verify_decomposition,
    verify_pseudo_disintegration,
)
from ergodec._stream import MULTIPLIER, SEED0_INC, SEED0_STATE, Seed0Stream

SIZES = [1, 2, 3, 40, 500, 2001]


def test_constants_are_those_of_default_rng_0():
    state = np.random.default_rng(0).bit_generator.state
    assert state["bit_generator"] == "PCG64"
    assert state["state"] == {"state": SEED0_STATE, "inc": SEED0_INC}
    assert MULTIPLIER == 0x2360ED051FC65DA44385DF649FCCF645


def assert_same_draws(stream, rng, low, high, n):
    expected = rng.uniform(low, high, size=n)
    got = stream.uniform(low, high, n)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_twenty_draws_equal_default_rng_0(n):
    stream, rng = Seed0Stream(), np.random.default_rng(0)
    for _ in range(20):
        assert_same_draws(stream, rng, -1.0, 1.0, n)


@pytest.mark.parametrize("n", SIZES)
def test_three_draws_per_trial_equal_default_rng_0(n):
    # The pattern of carre_decomposition: f, g and h in each of 20 trials.
    stream, rng = Seed0Stream(), np.random.default_rng(0)
    for _ in range(20):
        for _ in range(3):
            assert_same_draws(stream, rng, -1.0, 1.0, n)


def test_bounds_and_sizes_may_change_between_calls():
    stream, rng = Seed0Stream(), np.random.default_rng(0)
    for n, (low, high) in zip([7, 1024, 1, 1025, 3], [(0.5, 1.5), (0.1, 2.0), (-1.0, 1.0),
                                                      (0.0, 1e-300), (-1e300, 1e300)]):
        assert_same_draws(stream, rng, low, high, n)


def test_defaults_draw_what_default_rng_0_draws():
    # Every check with an rng=None default reports what default_rng(0) gives it.
    form = random_form(4, 40, 3)
    dec = decompose(form)
    space, family = dec.quotient.space, dec.family

    def rng():
        return np.random.default_rng(0)

    assert verify_decomposition(dec) == verify_decomposition(dec, rng=rng())
    assert carre_decomposition(dec)[1] == carre_decomposition(dec, rng=rng())[1]
    assert assemble_lp(space, family, 3.0) == assemble_lp(space, family, 3.0, rng=rng())
    assert verify_pseudo_disintegration(space, family) == verify_pseudo_disintegration(
        space, family, rng=rng()
    )
    default = superpose(space, family, dec.fibers)
    seeded = superpose(space, family, dec.fibers, rng=rng())
    assert default.isomorphism_defect == seeded.isomorphism_defect
