import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec import random_form
from ergodec.cli import main

from conftest import reference_random_form


def assert_same_form(a, b):
    assert a.space.points == b.space.points
    assert np.array_equal(a.space.mu, b.space.mu)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.killing, b.killing)


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 60))
    return n, draw(st.integers(1, n))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    shapes(),
    st.floats(0.0, 1.0),
    st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    st.booleans(),
)
def test_random_form_matches_reference_loop(seed, shape, killing_prob, density, probability):
    n, components = shape
    assert_same_form(
        random_form(seed, n, components, killing_prob, density, probability=probability),
        reference_random_form(seed, n, components, killing_prob, density, probability=probability),
    )


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
@pytest.mark.parametrize("n, components, density", [(40, 1, 0.0), (40, 3, 0.3), (40, 5, 1.0), (1, 1, 0.5)])
def test_passed_generator_ends_at_reference_stream_position(bit_generator, n, components, density):
    rng, reference_rng = np.random.Generator(bit_generator(7)), np.random.Generator(bit_generator(7))
    assert_same_form(
        random_form(rng, n, components, 0.2, density),
        reference_random_form(reference_rng, n, components, 0.2, density),
    )
    assert np.array_equal(rng.random(5), reference_rng.random(5))
    assert np.array_equal(rng.integers(0, 1000, size=5), reference_rng.integers(0, 1000, size=5))


@pytest.mark.parametrize("n, components, killing_prob, density", [
    (500, 1, 0.0, 0.05),
    (500, 125, 0.1, 0.5),
    (1000, 1, 0.0, 0.5),
])
def test_large_blocks_match_reference_loop_bitwise(n, components, killing_prob, density):
    # A block of hundreds of points has tens of thousands of candidate pairs,
    # whose draws are replayed over several chunks.
    rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
    form = random_form(rng, n, components, killing_prob, density)
    expected = reference_random_form(reference_rng, n, components, killing_prob, density)
    assert form.space.points == expected.space.points
    assert form.space.mu.tobytes() == expected.space.mu.tobytes()
    assert form.matrix.tobytes() == expected.matrix.tobytes()
    assert form.killing.tobytes() == expected.killing.tobytes()
    assert np.array_equal(rng.random(5), reference_rng.random(5))


@pytest.mark.parametrize("components", [1, 8])
def test_random_form_holds_one_n_by_n_array(components):
    # The edges are written once into the array that becomes the form's
    # matrix; the draws of a block are held a chunk of pairs at a time.
    n = 400
    random_form(0, n, components, 0.1, 0.05)  # one-off allocations of a first call stay out
    tracemalloc.start()
    try:
        random_form(1, n, components, 0.1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * n * n


def test_gen_output_bytes_are_pinned(tmp_path):
    out = tmp_path / "instance.json"
    assert main(["gen", "--seed", "1", "--n", "8", "--components", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "55ee812fd1b528d35e03d1ece90b5e81cb4d609727a4c39c0d6b88f08dfc4cd2"
    )
