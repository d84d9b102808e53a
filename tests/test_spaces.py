import re

import numpy as np
import pytest

from ergodec import (
    EmptySpaceError,
    Fiber,
    FiniteMeasureSpace,
    IndexSpace,
    MeasureFamily,
    NonFiniteError,
    NonPositiveWeightError,
    NotAPartitionError,
    NotPushforwardError,
    NotRepresentableError,
    QuotientMap,
    disintegrate_over_partition,
    is_separated,
    quotient_by_invariant_partition,
    validate_space,
    verify_pseudo_disintegration,
    worst,
)


def test_validate_space_identity():
    space = validate_space([("a", 1.0), ("b", 1.0)])
    assert space.points == ("a", "b")
    assert np.array_equal(space.mu, [1.0, 1.0])
    assert space.total_mass == 2.0


def test_validate_space_rejects_infinite_weight():
    with pytest.raises(NonFiniteError, match="position 1"):
        validate_space([("a", 1.0), ("b", np.inf)])


def test_validate_space_rejects_zero_weight():
    with pytest.raises(NonPositiveWeightError) as err:
        validate_space([("a", 0.0)])
    assert err.value.index == 0


def test_validate_space_rejects_empty():
    with pytest.raises(EmptySpaceError):
        validate_space([])


def test_validate_space_probability_mass():
    space = validate_space([("a", 0.25), ("b", 0.25), ("c", 0.25), ("d", 0.25)])
    assert space.total_mass == pytest.approx(1.0, rel=1e-14)


def test_total_mass_matches_sum():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.1, 3.0, size=17)
    space = validate_space([(i, wi) for i, wi in enumerate(w)])
    assert space.total_mass == pytest.approx(w.sum(), rel=1e-14)


def test_disintegrate_twin(fx_twin):
    qmap, family = disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    assert qmap.index.labels == ("z0", "z1")
    assert np.allclose(qmap.index.nu, [0.5, 0.5])
    assert family.fibers["z0"].support == ("a", "b")
    assert np.allclose(family.fibers["z0"].weights, [0.5, 0.5])
    # strong consistency and exactness
    point, integral = verify_pseudo_disintegration(fx_twin.space, family)
    assert point.value == 0.0
    assert point.passed and integral.passed


def test_disintegrate_single_block(fx_edge):
    qmap, family = disintegrate_over_partition(fx_edge.space, [["a", "b"]])
    assert np.allclose(qmap.index.nu, [2.0])
    assert np.allclose(family.fibers["z0"].weights, [0.5, 0.5])


def test_disintegrate_grid_rows(fx_grid):
    rows = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]]
    qmap, family = disintegrate_over_partition(fx_grid.space, rows)
    assert np.allclose(qmap.index.nu, [0.5, 0.5])
    for z in qmap.index.labels:
        assert np.allclose(family.fibers[z].weights, [1 / 3, 1 / 3, 1 / 3])


def test_disintegrate_rejects_non_partition(fx_twin):
    with pytest.raises(NotAPartitionError):
        disintegrate_over_partition(fx_twin.space, [["a", "b"], ["b", "c", "d"]])
    with pytest.raises(NotAPartitionError):
        disintegrate_over_partition(fx_twin.space, [["a", "b"]])
    with pytest.raises(NotAPartitionError):
        disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d", "x"]])


def test_disintegration_is_always_separated(fx_twin):
    _, family = disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    separated, supports = is_separated(family)
    assert separated
    assert supports == (("a", "b"), ("c", "d"))


def test_disintegration_essential_uniqueness(fx_grid):
    # Same quotient map, independently derived weights: fibers agree exactly.
    rows = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]]
    _, fam_a = disintegrate_over_partition(fx_grid.space, rows)
    _, fam_b = disintegrate_over_partition(fx_grid.space, list(reversed(rows)))
    for z in fam_a.index.labels:
        assert fam_a.fibers[z].support == fam_b.fibers[z].support
        assert np.array_equal(fam_a.fibers[z].weights, fam_b.fibers[z].weights)


def test_perturbed_family_defect(fx_twin):
    # Add 0.1 extra mass at point a to the second fiber: the singleton defect
    # is the index weight times the perturbation.
    _, family = disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    bad = MeasureFamily(
        family.index,
        {
            "z0": family.fibers["z0"],
            "z1": Fiber(("c", "d", "a"), np.array([0.5, 0.5, 0.1])),
        },
    )
    residuals = verify_pseudo_disintegration(fx_twin.space, bad)
    assert residuals[0].name == "point" and residuals[0].value == pytest.approx(0.05, abs=1e-15)
    assert not worst(residuals).passed
    separated, witness = is_separated(bad)
    assert not separated and witness == "a"


def test_two_copies_of_a_point_family():
    # One point of mass two split as two unit copies: a valid
    # pseudo-disintegration that is not separated.
    space = validate_space([("*", 2.0)])
    index = IndexSpace((0, 1), [1.0, 1.0])
    family = MeasureFamily(
        index, {0: Fiber(("*",), [1.0]), 1: Fiber(("*",), [1.0])}
    )
    residuals = verify_pseudo_disintegration(space, family)
    assert residuals[0].value == 0.0
    assert worst(residuals).passed
    separated, witness = is_separated(family)
    assert not separated and witness == "*"


def test_single_fiber_family_is_separated():
    space = validate_space([("a", 1.0), ("b", 2.0)])
    _, family = disintegrate_over_partition(space, [["a", "b"]])
    assert is_separated(family)[0]


def test_quotient_map_twin(fx_twin):
    qmap = quotient_by_invariant_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    assert qmap("a") == qmap("b") == "z0"
    assert qmap("c") == qmap("d") == "z1"
    assert np.allclose(qmap.index.nu, [0.5, 0.5])


def test_quotient_map_singleton():
    space = validate_space([("only", 3.5)])
    qmap = quotient_by_invariant_partition(space, [["only"]])
    assert qmap.index.labels == ("z0",)
    assert np.allclose(qmap.index.nu, [3.5])


def test_quotient_map_grid_rows(fx_grid):
    rows = [[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 1), (2, 1)]]
    qmap = quotient_by_invariant_partition(fx_grid.space, rows)
    assert np.allclose(qmap.index.nu, [0.5, 0.5])


def test_quotient_labels_deterministic(fx_twin):
    # Blocks presented in any order map to the same canonical labels.
    forward = quotient_by_invariant_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    reverse = quotient_by_invariant_partition(fx_twin.space, [["d", "c"], ["b", "a"]])
    assert forward.blocks == reverse.blocks
    assert np.array_equal(forward.index.nu, reverse.index.nu)


WEIGHT_MAKERS = [
    lambda w: IndexSpace(("z0", "z1", "z2")[:len(w)], w),
    lambda w: Fiber(("a", "b", "c")[:len(w)], w),
    lambda w: validate_space(zip(("a", "b", "c"), w)),
]


@pytest.mark.parametrize("make", WEIGHT_MAKERS)
def test_weights_reject_inf_and_report_first_bad_position(make):
    with pytest.raises(NonFiniteError, match="position 1"):
        make([1.0, np.inf])
    with pytest.raises(NonFiniteError, match="position 0"):
        make([np.inf, 0.0])
    with pytest.raises(NonPositiveWeightError) as info:
        make([0.0, np.inf])
    assert info.value.index == 0
    with pytest.raises(NonPositiveWeightError) as info:
        make([1.0, np.nan])
    assert info.value.index == 1
    # The first failing weight decides, whichever way it fails.
    with pytest.raises(NonFiniteError, match="infinite weight at position 1"):
        make([1.0, np.inf, -1.0])
    with pytest.raises(NonPositiveWeightError) as info:
        make([1.0, -1.0, np.inf])
    assert info.value.index == 1 and str(info.value) == "non-positive weight at position 1"


@pytest.mark.parametrize("make", WEIGHT_MAKERS)
def test_weights_whose_total_mass_overflows_are_refused(make):
    with np.errstate(all="raise"), pytest.raises(NonFiniteError, match="overflows to inf"):
        make([1e308, 1e308])


def test_index_spaces_and_fibers_are_finite_measure_spaces():
    # The paper's names read the points and weights of one validated space.
    index = IndexSpace(("z0", "z1"), [0.25, 0.75])
    fiber = Fiber(("a", "b"), [0.5, 0.5])
    for space in (index, fiber):
        assert isinstance(space, FiniteMeasureSpace)
        assert "__post_init__" not in type(space).__dict__
        assert not space.mu.flags.writeable
    assert index.labels is index.points and index.nu is index.mu
    assert (index.size, index.position("z1"), index.weight("z1")) == (2, 1, 0.75)
    assert fiber.support is fiber.points and fiber.weights is fiber.mu
    assert fiber.inner([1.0, 2.0], [1.0, 1.0]) == 1.5
    with pytest.raises(AttributeError):
        index.nu = np.ones(2)


def test_normalized_names_the_point_whose_weight_underflows():
    space = validate_space([("a", 1e-300), ("b", 1e300)])
    with pytest.raises(NotRepresentableError, match="mu\\('a'\\)") as info:
        space.normalized()
    assert "non-positive" not in str(info.value)
    assert np.array_equal(validate_space([("a", 1.0), ("b", 3.0)]).normalized().mu, [0.25, 0.75])


def test_quotient_layout_matches_blocks(fx_grid):
    qmap = quotient_by_invariant_partition(fx_grid.space, [[(0, 1), (2, 1), (1, 1)], [(1, 0), (0, 0), (2, 0)]])
    assert len(qmap._layout.blocks) == 2
    for z, idx in zip(qmap.index.labels, qmap._layout.blocks):
        assert tuple(fx_grid.space.points[i] for i in idx) == qmap.blocks[z]
        assert qmap.block_indices(z) is idx
        assert not idx.flags.writeable


@pytest.mark.parametrize("assignment, nu, error, message", [
    ({"a": "x", "b": "w"}, [1.0, 1.0], NotAPartitionError, "'b' is assigned to 'w', which is not an index label"),
    ({"a": "x", "b": ["x"]}, [1.0, 1.0], NotAPartitionError, "which is not an index label"),
    ({"a": "x", "b": "x"}, [2.0, 1.0], NotAPartitionError, "index label 'y' has no points"),
    ({"a": "x", "b": "x"}, [5.0], NotPushforwardError, "index weight 5.0 of 'x' is not the mass 2.0"),
    # Both blocks fail; the first in label order is named, not the block of the first point.
    ({"a": "y", "b": "x"}, [3.0, 4.0], NotPushforwardError, "index weight 3.0 of 'x' is not the mass 1.0"),
])
def test_quotient_map_rejects_what_is_no_pushforward(assignment, nu, error, message):
    space = validate_space([("a", 1.0), ("b", 1.0)])
    labels = ("x", "y")[:len(nu)]
    with pytest.raises(error, match=re.escape(message)):
        QuotientMap(space, assignment, IndexSpace(labels, nu))


def test_quotient_map_accepts_block_mass_within_relative_tolerance():
    space = validate_space([("a", 0.1), ("b", 0.2), ("c", 3.0)])
    mass = 0.1 + 0.2  # not the sum numpy takes, but within roundoff of it
    qmap = QuotientMap(space, {"a": "x", "b": "x", "c": "y"}, IndexSpace(("x", "y"), [mass, 3.0]))
    assert qmap.blocks == {"x": ("a", "b"), "y": ("c",)}
    with pytest.raises(NotPushforwardError):
        QuotientMap(space, {"a": "x", "b": "x", "c": "y"}, IndexSpace(("x", "y"), [mass * (1 + 1e-11), 3.0]))
