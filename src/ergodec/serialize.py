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
fixed input always serializes to identical bytes.
"""

from __future__ import annotations

import numpy as np

from .direct_integral import DecomposableOperator
from .ergodic import DecompositionReport, ErgodicDecomposition
from .errors import ErgodecError
from .forms import Classification, DirichletForm
from .spaces import (
    Fiber,
    FiniteMeasureSpace,
    IndexSpace,
    MeasureFamily,
    validate_space,
)


def space_to_json(space: FiniteMeasureSpace) -> dict:
    return {"points": list(space.points), "mu": [float(w) for w in space.mu]}


def space_from_json(obj: dict) -> FiniteMeasureSpace:
    points = obj["points"]
    mu = obj["mu"]
    if len(points) != len(mu):
        raise ValueError("'points' and 'mu' must have equal length")
    return validate_space(zip(_labels(points), mu))


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
                "weights": [float(w) for w in family.fibers[z].weights],
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


def _edge_list(points, jump) -> list:
    """``[x, y, w]`` for each positive jump weight above the diagonal, row-major."""
    rows, cols = np.nonzero(np.triu(jump, 1) > 0)
    weights = jump[rows, cols].tolist()
    return [[points[i], points[j], w] for i, j, w in zip(rows.tolist(), cols.tolist(), weights)]


def form_to_json(form: DirichletForm) -> dict:
    return {
        "space": space_to_json(form.space),
        "edges": _edge_list(form.space.points, form.jump),
        "killing": [float(k) for k in form.killing],
    }


def form_from_json(obj: dict) -> DirichletForm:
    """Read a form given either by an edge list or by a dense energy matrix."""
    space = space_from_json(obj["space"])
    if "matrix" in obj:
        return DirichletForm.from_matrix(space, np.array(obj["matrix"], dtype=float))
    jump = _jump_from_edges(space, obj.get("edges", []))
    killing = obj.get("killing")
    if killing is not None:
        killing = np.array(killing, dtype=float)
    return DirichletForm.from_jump_kernel(space, jump, killing)


_EDGE = np.dtype([("x", np.intp), ("y", np.intp), ("w", float)])


def _jump_from_edges(space: FiniteMeasureSpace, edges) -> np.ndarray:
    """Symmetric jump matrix of ``[x, y, w]`` edges; a repeated pair keeps its last weight."""
    n = space.n
    jump = np.zeros((n, n))
    index = space.index_of
    try:
        parsed = np.fromiter(
            ((index(_label(x)), index(_label(y)), float(w)) for x, y, w in edges),
            dtype=_EDGE, count=len(edges),
        )
    except KeyError as exc:
        raise ErgodecError(f"edge names unknown point {exc.args[0]!r}") from None
    rows, cols, weights = parsed["x"], parsed["y"], parsed["w"]
    # The last edge of each unordered pair wins, in either orientation.
    pair = np.minimum(rows, cols) * n + np.maximum(rows, cols)
    _, from_end = np.unique(pair[::-1], return_index=True)
    last = len(pair) - 1 - from_end
    rows, cols, weights = rows[last], cols[last], weights[last]
    jump[np.concatenate([rows, cols]), np.concatenate([cols, rows])] = np.concatenate([weights, weights])
    return jump


def block_operator_to_json(op: DecomposableOperator) -> dict:
    labels = op.dspace.index.labels
    return {
        "nu": {str(z): float(op.dspace.index.weight(z)) for z in labels},
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
            "mu": [float(w) for w in fiber.space.mu],
            "edges": _edge_list(fiber.space.points, fiber.jump),
            "killing": [float(k) for k in fiber.killing],
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
