"""JSON wire formats for spaces, families, forms, block operators and reports.

Field names are part of the interface and fixed:

* space:           ``{"points": [...], "mu": [...]}``
* family:          ``{"nu": {z: w}, "fibers": {z: {"support": [...], "weights": [...]}}}``
* form:            ``{"space": ..., "edges": [[x, y, w], ...], "killing": [...]}``
                   or ``{"space": ..., "matrix": [[...]]}``
* block operator:  ``{"nu": {z: w}, "blocks": {z: [[...]]}}``
* decomposition:   ``{"scale": ..., "nu": {...}, "fibers": {z: {"support": [...],
                   "mu": [...], "edges": [...], "killing": [...], "class": {...}}},
                   "residuals": {...}}``

Dictionaries are emitted in deterministic order (index label order), so a
fixed input always serializes to identical bytes.  A form document that does
not follow its format raises an :class:`~ergodec.errors.ErgodecError` that
names the offending field.
"""

from __future__ import annotations

import reprlib
from typing import TYPE_CHECKING

import numpy as np

from .errors import ErgodecError
from ._validation import _symmetrize
from .forms import Classification, DirichletForm
from .spaces import (
    Fiber,
    FiniteMeasureSpace,
    IndexSpace,
    MeasureFamily,
    validate_space,
)

if TYPE_CHECKING:  # annotations only: the form and classify paths never load these modules
    from .direct_integral import DecomposableOperator
    from .ergodic import DecompositionReport, ErgodicDecomposition


def space_to_json(space: FiniteMeasureSpace) -> dict:
    return {"points": list(space.points), "mu": space.mu.tolist()}


def _field(obj, key: str, owner: str):
    """``obj[key]``, or a typed error when ``obj`` is no JSON object or lacks the key."""
    if not isinstance(obj, dict):
        raise ErgodecError(f"{owner} must be a JSON object")
    if key not in obj:
        raise ErgodecError(f"{owner} has no {key!r} field")
    return obj[key]


def _float_array(values, field: str, shape: tuple) -> np.ndarray:
    """``values`` as a float array of the given shape, or a typed error naming the field."""
    try:
        array = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or array.shape != shape:
        kind = f"a list of {shape[0]}" if len(shape) == 1 else f"a {shape[0]} x {shape[1]} array of"
        raise ErgodecError(f"{field!r} must be {kind} numbers")
    return array


def space_from_json(obj: dict) -> FiniteMeasureSpace:
    points = _field(obj, "points", "'space'")
    mu = _field(obj, "mu", "'space'")
    try:
        equal = len(points) == len(mu)
    except TypeError:
        raise ErgodecError("'points' and 'mu' must be lists") from None
    if not equal:
        raise ErgodecError("'points' and 'mu' must have equal length")
    return validate_space(zip(_labels(points), _float_array(mu, "mu", (len(mu),))))


def _label(point):
    # JSON lists are unhashable; turn list labels into tuples.
    return tuple(point) if isinstance(point, list) else point


def _labels(points) -> tuple:
    return tuple(map(_label, points))


def family_to_json(family: MeasureFamily) -> dict:
    labels = family.index.labels
    return {
        "nu": {str(z): float(family.index.weight(z)) for z in labels},
        "fibers": {
            str(z): {
                "support": list(family.fibers[z].support),
                "weights": family.fibers[z].weights.tolist(),
            }
            for z in labels
        },
    }


def family_from_json(obj: dict) -> MeasureFamily:
    nu = obj["nu"]
    labels = tuple(nu)
    index = IndexSpace(labels, [float(nu[z]) for z in labels])
    fibers = {
        z: Fiber(_labels(obj["fibers"][z]["support"]), obj["fibers"][z]["weights"])
        for z in labels
    }
    return MeasureFamily(index, fibers)


def _edge_list(points, matrix) -> list:
    """``[x, y, w]`` for each positive jump weight above the diagonal, row-major.

    Read from a symmetric energy matrix: off the diagonal the jump weight is
    max(-q, 0), so the edges are the negative entries q and their weights -q.
    """
    rows, cols = np.nonzero(np.triu(matrix < 0, 1))
    weights = np.negative(matrix[rows, cols]).tolist()
    return [[points[i], points[j], w] for i, j, w in zip(rows.tolist(), cols.tolist(), weights)]


def form_to_json(form: DirichletForm) -> dict:
    return {
        "space": space_to_json(form.space),
        "edges": _edge_list(form.space.points, form.matrix),
        "killing": form.killing.tolist(),
    }


def form_from_json(obj: dict) -> DirichletForm:
    """Read a form given either by an edge list or by a dense energy matrix."""
    space = space_from_json(_field(obj, "space", "the form document"))
    n = space.n
    if "matrix" in obj:  # from_matrix on the parsed array, which becomes the form's matrix
        matrix = _symmetrize(_float_array(obj["matrix"], "matrix", (n, n)))
        return DirichletForm._from_symmetrized(space, matrix)
    jump = _jump_from_edges(space, obj.get("edges", []))
    killing = obj.get("killing")
    if killing is not None:
        killing = _float_array(killing, "killing", (n,))
    return DirichletForm._from_symmetric_kernel(space, jump, killing)  # jump becomes the matrix


_EDGE = np.dtype([("x", np.intp), ("y", np.intp), ("w", float)])


def _jump_from_edges(space: FiniteMeasureSpace, edges) -> np.ndarray:
    """Bitwise symmetric jump matrix of ``[x, y, w]`` edges; a repeated pair keeps its last weight."""
    n = space.n
    jump = np.zeros((n, n))
    index = space.index_of
    try:
        parsed = np.fromiter(
            ((index(_label(x)), index(_label(y)), float(w)) for x, y, w in edges),
            dtype=_EDGE, count=len(edges),
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        _check_edges(space, edges)
        raise
    rows, cols, weights = parsed["x"], parsed["y"], parsed["w"]
    # The last edge of each unordered pair wins, in either orientation.
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, from_end = np.unique(pair[::-1], return_index=True)
    last = len(pair) - 1 - from_end
    rows, cols, weights = rows[last], cols[last], weights[last]
    jump[np.concatenate([rows, cols]), np.concatenate([cols, rows])] = np.concatenate([weights, weights])
    return jump


def _check_edges(space: FiniteMeasureSpace, edges) -> None:
    """Raise a typed error for the first edge that cannot be read, in the order it is read."""
    if not isinstance(edges, list):
        raise ErgodecError("'edges' must be a list of [x, y, w] triples")
    for i, edge in enumerate(edges):
        try:
            x, y, w = edge
        except (TypeError, ValueError):
            raise ErgodecError(f"edge {i} is not an [x, y, w] triple: {reprlib.repr(edge)}") from None
        for point in (x, y):
            try:
                space.index_of(_label(point))
            except KeyError as exc:
                raise ErgodecError(f"edge names unknown point {exc.args[0]!r}") from None
            except TypeError:
                raise ErgodecError(f"edge {i} names an unhashable point: {reprlib.repr(point)}") from None
        try:
            float(w)
        except (TypeError, ValueError, OverflowError):
            raise ErgodecError(f"edge {i} weight is not a number: {reprlib.repr(w)}") from None


def block_operator_to_json(op: DecomposableOperator) -> dict:
    labels = op.family.index.labels
    return {
        "nu": {str(z): float(op.family.index.weight(z)) for z in labels},
        "blocks": {str(z): op.blocks[i].tolist() for i, z in enumerate(labels)},
    }


def block_operator_from_json(obj: dict) -> tuple[IndexSpace, tuple]:
    """Read the index measure and block matrices of a serialized operator.

    The wire format carries no fiber measures, so the caller assembles the
    blocks over a direct-integral space of their choosing.
    """
    nu = obj["nu"]
    labels = tuple(nu)
    index = IndexSpace(labels, [float(nu[z]) for z in labels])
    blocks = tuple(np.array(obj["blocks"][z], dtype=float) for z in labels)
    return index, blocks


def classification_to_json(cls: Classification) -> dict:
    return {
        "conservative": cls.conservative,
        "transient": cls.transient,
        "recurrent": cls.recurrent,
    }


def decomposition_report(
    dec: ErgodicDecomposition,
    verification: DecompositionReport,
    fiber_classes=None,
) -> dict:
    """The full decomposition report with deterministic key order."""
    fibers = {}
    for i, z in enumerate(dec.labels):
        fiber = dec.fibers[i]
        entry = {
            "support": list(fiber.space.points),
            "mu": fiber.space.mu.tolist(),
            "edges": _edge_list(fiber.space.points, fiber.matrix),
            "killing": fiber.killing.tolist(),
        }
        if fiber_classes is not None:
            entry["class"] = classification_to_json(fiber_classes[i])
        fibers[str(z)] = entry
    return {
        "scale": float(dec.normalization_scale),
        "nu": {str(z): float(dec.quotient.index.weight(z)) for z in dec.labels},
        "fibers": fibers,
        "residuals": {
            "form": verification.form_defect,
            "semigroup": {str(t): v for t, v in verification.semigroup_defects.items()},
            "resolvent": {str(a): v for a, v in verification.resolvent_defects.items()},
            "isometry": verification.isometry_defect,
        },
    }
