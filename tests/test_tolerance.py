import math

from ergodec import Residual, worst


def test_a_residual_passes_at_its_tolerance():
    assert Residual("a", 1e-10, 1e-10).passed
    assert not Residual("a", 1.0000000000000002e-10, 1e-10).passed
    assert Residual("a", 0.0, 0.0).passed and Residual("a", 0.0, 0.0).share == 0.0
    assert not Residual("a", 5e-324, 0.0).passed and Residual("a", 5e-324, 0.0).share == math.inf


def test_a_nan_residual_fails_and_is_the_worst():
    nan = Residual(("semigroup", 1.0), math.nan, 1e-10)
    assert not nan.passed
    assert math.isnan(nan.share)
    over = Residual("form", 1.0, 0.0)  # an infinite share of its tolerance
    assert worst([Residual("isometry", 0.0, 0.0), over, nan, Residual("b", 2.0, 1.0)]) is nan
    assert worst([over, Residual("b", 2.0, 0.0)]) is over  # ties go to the first


def test_a_failing_residual_is_worse_than_every_passing_one():
    # Over a NaN tolerance nothing passes, though the share of a zero value is 0.
    failing = Residual("a", 0.0, math.nan)
    assert not failing.passed and failing.share == 0.0
    assert worst([Residual("b", 0.5, 0.5), failing]) is failing
    assert worst([Residual("b", 0.25, 0.5), Residual("c", 0.5, 0.5)]).name == "c"
