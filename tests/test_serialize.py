import json
import tracemalloc

import numpy as np
import pytest

from ergodec import (
    DirichletForm,
    NonFiniteError,
    NotMarkovianError,
    classification_decomposition,
    decompose,
    decompose_operator,
    is_markovian,
    quotient_by_invariant_partition,
    semigroup,
    validate_space,
    verify_decomposition,
)
from ergodec.serialize import (
    _edge_list,
    block_operator_from_json,
    block_operator_to_json,
    decomposition_report,
    family_from_json,
    family_to_json,
    form_from_json,
    form_to_json,
    space_from_json,
    space_to_json,
)
from ergodec import disintegrate_over_partition, random_form


def test_space_round_trip():
    space = validate_space([("a", 1.0), ("b", 0.25)])
    obj = space_to_json(space)
    assert obj == {"points": ["a", "b"], "mu": [1.0, 0.25]}
    again = space_from_json(json.loads(json.dumps(obj)))
    assert again.points == space.points
    assert np.array_equal(again.mu, space.mu)


def test_family_round_trip(fx_twin):
    _, family = disintegrate_over_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    obj = family_to_json(family)
    assert set(obj) == {"nu", "fibers"}
    assert obj["nu"] == {"z0": 0.5, "z1": 0.5}
    assert obj["fibers"]["z0"] == {"support": ["a", "b"], "weights": [0.5, 0.5]}
    again = family_from_json(json.loads(json.dumps(obj)))
    assert again.index.labels == ("z0", "z1")
    assert again.fibers["z1"].support == ("c", "d")


def test_form_round_trip_edges(fx_twin_kill):
    obj = form_to_json(fx_twin_kill)
    assert set(obj) == {"space", "edges", "killing"}
    again = form_from_json(json.loads(json.dumps(obj)))
    assert np.abs(again.matrix - fx_twin_kill.matrix).max() <= 1e-14
    assert np.array_equal(again.space.mu, fx_twin_kill.space.mu)


def test_form_from_matrix_variant(fx_kill):
    obj = {
        "space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
        "matrix": [[2.0, -1.0], [-1.0, 1.0]],
    }
    form = form_from_json(obj)
    assert np.allclose(form.matrix, fx_kill.matrix)


def test_form_json_tuple_labels(fx_grid):
    # Nested (grid) labels survive the JSON round trip as tuples.
    obj = json.loads(json.dumps(form_to_json(fx_grid)))
    again = form_from_json(obj)
    assert again.space.points == fx_grid.space.points
    assert np.abs(again.matrix - fx_grid.matrix).max() <= 1e-14


def test_block_operator_round_trip(fx_twin):
    qmap = quotient_by_invariant_partition(fx_twin.space, [["a", "b"], ["c", "d"]])
    op = decompose_operator(semigroup(fx_twin, 1.0), qmap)
    obj = json.loads(json.dumps(block_operator_to_json(op)))
    index, blocks = block_operator_from_json(obj)
    assert index.labels == ("z0", "z1")
    for a, b in zip(blocks, op.blocks):
        assert np.abs(a - b).max() <= 1e-15


def test_decomposition_report_schema(fx_twin_kill):
    dec = decompose(fx_twin_kill)
    verification = verify_decomposition(dec)
    classes = classification_decomposition(dec).per_fiber
    report = decomposition_report(dec, verification, classes)
    assert list(report) == ["scale", "nu", "fibers", "residuals"]
    fiber = report["fibers"]["z2"]
    assert list(fiber) == ["support", "mu", "edges", "killing", "class"]
    assert fiber["class"] == {"conservative": False, "transient": True, "recurrent": False}
    assert report["scale"] == pytest.approx(3.0)
    # Deterministic bytes.
    assert json.dumps(report) == json.dumps(
        decomposition_report(dec, verify_decomposition(dec), classes)
    )


def naive_edge_list(points, jump):
    edges = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if jump[i, j] > 0:
                edges.append([points[i], points[j], float(jump[i, j])])
    return edges


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("tuple_labels", [False, True])
def test_edge_list_matches_naive_loop(seed, tuple_labels):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    form = random_form(seed, n, int(rng.integers(1, n + 1)), killing_prob=0.2, density=0.3)
    obj = form_to_json(form)
    if tuple_labels:
        # Nested JSON lists come back as tuple labels.
        labels = {x: [i % 3, i // 3] for i, x in enumerate(obj["space"]["points"])}
        obj["space"]["points"] = [labels[x] for x in obj["space"]["points"]]
        obj["edges"] = [[labels[x], labels[y], w] for x, y, w in obj["edges"]]
    form = form_from_json(json.loads(json.dumps(obj)))
    expected = naive_edge_list(form.space.points, form.jump)
    edges = _edge_list(form.space.points, form.matrix)
    assert repr(edges) == repr(expected)
    assert json.dumps(edges) == json.dumps(expected)
    assert form_to_json(form)["edges"] == expected


@pytest.mark.parametrize("text", [
    '{"nu": {"z0": Infinity}, "fibers": {"z0": {"support": ["a"], "weights": [1.0]}}}',
    '{"nu": {"z0": 1.0}, "fibers": {"z0": {"support": ["a", "b"], "weights": [0.5, Infinity]}}}',
])
def test_family_from_json_rejects_inf(text):
    with pytest.raises(NonFiniteError):
        family_from_json(json.loads(text))


def test_block_operator_from_json_rejects_inf():
    text = '{"nu": {"z0": 1.0, "z1": Infinity}, "blocks": {"z0": [[1.0]], "z1": [[1.0]]}}'
    with pytest.raises(NonFiniteError, match="position 1"):
        block_operator_from_json(json.loads(text))


def sequential_jump(space, edges):
    """Jump matrix written one edge at a time, both orientations."""
    jump = np.zeros((space.n, space.n))
    for x, y, w in edges:
        i = space.index_of(tuple(x) if isinstance(x, list) else x)
        j = space.index_of(tuple(y) if isinstance(y, list) else y)
        jump[i, j] = jump[j, i] = float(w)
    return jump


def test_edge_list_repeats_last_wins():
    space = {"points": ["a", "b", "c"], "mu": [1.0, 1.0, 1.0]}
    edges = [["a", "b", 1.0], ["b", "c", 2.0], ["a", "b", 3.0], ["c", "b", 4.0], ["b", "b", 9.0]]
    form = form_from_json({"space": space, "edges": edges})
    assert form.jump.tolist() == [[0.0, 3.0, 0.0], [3.0, 0.0, 4.0], [0.0, 4.0, 0.0]]


def test_edge_list_self_loop_is_ignored():
    space = {"points": ["a", "b"], "mu": [1.0, 2.0]}
    plain = form_from_json({"space": space, "edges": [["a", "b", 1.5]]})
    looped = form_from_json({"space": space, "edges": [["a", "a", 7.0], ["a", "b", 1.5], ["b", "b", 2.0]]})
    assert np.array_equal(looped.matrix, plain.matrix)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tuple_labels", [False, True])
def test_edge_list_parsing_matches_sequential_writes(seed, tuple_labels):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    points = [[i % 3, i // 3] for i in range(n)] if tuple_labels else [f"p{i}" for i in range(n)]
    # Many more edges than pairs: repeats, reversed repeats and self-loops.
    edges = [
        [points[int(i)], points[int(j)], float(rng.uniform(0.1, 2.0))]
        for i, j in rng.integers(0, n, size=(3 * n, 2))
    ]
    obj = json.loads(json.dumps({"space": {"points": points, "mu": [1.0] * n}, "edges": edges}))
    form = form_from_json(obj)
    expected = DirichletForm.from_jump_kernel(form.space, sequential_jump(form.space, obj["edges"]))
    assert np.array_equal(form.matrix, expected.matrix)
    assert np.array_equal(form.jump, expected.jump)


@pytest.mark.parametrize("kind", ["markov", "psd-not-markov"])
def test_dense_form_from_json_holds_one_n_by_n_array(kind):
    # The parsed array is symmetrized in place and validated in row panels;
    # eigvalsh copies it outside numpy's traced allocator.
    n = 400
    if kind == "markov":
        form = random_form(2, n, 8, 0.1, 0.05)
        space, matrix = form.space, np.array(form.matrix)
    else:
        rng = np.random.default_rng(5)
        b = rng.standard_normal((n, n // 2))
        space, matrix = validate_space([(f"p{i}", 1.0) for i in range(n)]), b @ b.T
    obj = json.loads(json.dumps({"space": space_to_json(space), "matrix": matrix.tolist()}))

    def load():
        try:
            return form_from_json(obj)
        except NotMarkovianError:
            return None

    assert (load() is None) == (kind != "markov")  # one-off allocations of a first call stay out
    tracemalloc.start()
    try:
        load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 8 * n * n
    # A caller's array is copied once and never written.
    before = matrix.tobytes()
    for build in (DirichletForm.from_matrix, DirichletForm, lambda s, m: is_markovian(m, s)):
        try:
            build(space, matrix)
        except NotMarkovianError:
            pass
        assert matrix.tobytes() == before


def test_form_from_json_holds_one_n_by_n_array():
    # The edge matrix becomes the form's matrix in place.
    n = 400
    obj = json.loads(json.dumps(form_to_json(random_form(1, n, 8, 0.1, 0.05))))
    form_from_json(obj)  # one-off allocations of a first call stay out
    tracemalloc.start()
    try:
        form_from_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * n * n
