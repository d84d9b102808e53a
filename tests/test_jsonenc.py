"""The bulk report encoder against ``json.dumps(obj, indent=2)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodec._jsonenc import _RUN, _bulk_run, iterencode

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308]
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    SPECIAL_FLOATS
)
strings = st.text() | st.sampled_from(
    ["", "é中\U0001f600", '"', "\\", "\n\t\x00\x1f\x7f", ", ", "a, b"]
)
scalars = st.one_of(
    strings,
    st.integers(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.booleans(),
    st.none(),
    floats,
    floats.map(np.float64),
)
keys = st.one_of(strings, st.integers(), floats, st.booleans(), st.none())


def rows(items):
    """Rows of mostly one width, some of them tuples, so that runs can be ragged."""
    return st.lists(items, max_size=4) | st.lists(items, min_size=3, max_size=3).map(tuple)


def runs(items, repeats=_RUN // 3):
    """A list repeating a pattern of up to 6 items: runs longer than ``_RUN``, uniform or mixed."""
    return st.builds(lambda pattern, k: pattern * k, st.lists(items, min_size=1, max_size=6),
                     st.integers(1, repeats))


def documents(leaves):
    def extend(children):
        return st.one_of(
            st.lists(children, max_size=6),
            st.lists(children, max_size=6).map(tuple),
            st.dictionaries(keys, children, max_size=6),
            runs(leaves),
            runs(rows(leaves)),
        )

    return st.recursive(leaves, extend, max_leaves=40)


def assert_encodes_as_json(obj):
    try:
        expected = json.dumps(obj, indent=2)
    except TypeError:
        with pytest.raises(TypeError):
            "".join(iterencode(obj))
        return
    assert "".join(iterencode(obj)) == expected


@settings(max_examples=150, deadline=None)
@given(documents(scalars))
def test_output_equals_json_dumps(obj):
    assert_encodes_as_json(obj)


uniform_leaves = st.one_of(
    st.sampled_from(["p0", "p17", "é"]),
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6).map(np.float64),
    st.integers(0, 10 ** 6),
)


edges = st.tuples(uniform_leaves, uniform_leaves, uniform_leaves).map(list)


@settings(max_examples=60, deadline=None)
@given(runs(uniform_leaves, 3 * _RUN) | runs(edges, 3 * _RUN))
def test_long_uniform_and_mixed_runs_equal_json_dumps(obj):
    # Patterns of one kind take the bulk paths, patterns that mix kinds the per-item one.
    assert_encodes_as_json(obj)


@pytest.mark.parametrize("run", [
    ["p0", "é", '"'] * 400,
    [0.5, np.float64(-0.0), 5e-324, 1e308] * 300,
    [0, 7, 2 ** 80] * 400,
    [["p0", "p1", 0.5], ("p2", "p3", 1e-300)] * 600,
], ids=["str", "float", "int", "rows"])
def test_uniform_runs_take_the_bulk_path(run):
    assert _bulk_run(run[:_RUN], 1) is not None
    assert_encodes_as_json({"run": run})


class Opaque:
    pass


unserializable = st.sampled_from([np.int64(1), np.bool_(True), np.float32(0.5), b"x", {1},
                                  Opaque(), 1j])


@settings(max_examples=150, deadline=None)
@given(documents(scalars | unserializable))
def test_raises_type_error_where_json_does(obj):
    assert_encodes_as_json(obj)


@pytest.mark.parametrize("obj", [
    {(1, 2): 1.0},
    {"a": [1.0] * (2 * _RUN) + [np.float32(1.0)]},
    [["p0", "p1", 0.5]] * _RUN + [["p0", "p1", Opaque()]],
    [[1.0, 2.0], [1.0, np.int64(2)]],
])
def test_unserializable_items_and_keys_raise_type_error(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        "".join(iterencode(obj))


def test_circular_reference_raises_value_error():
    loop = [1.0]
    loop.append(loop)
    nested = {"a": {}}
    nested["a"]["b"] = nested
    for obj in (loop, nested):
        with pytest.raises(ValueError, match="Circular reference detected"):
            "".join(iterencode(obj))


def test_shared_rows_are_not_circular():
    row = ["p0", "p1", 0.25]
    obj = {"edges": [row] * 3, "again": row}
    assert "".join(iterencode(obj)) == json.dumps(obj, indent=2)
