"""Standing fuzz properties: documents of one to five points with extreme weights.

A document is an edge list or a dense matrix, symmetric or not.

Every weight is drawn from values between 1e-300 and 1e300, zero and -0.0
included, so the documents reach the edges of the representable range, and
from small negative values, which the validation margins can let through.
Each document has a defined outcome under every command, ``girsanov --phi
random`` included: exit 0, a typed validation error (exit 2) or a residual
failure (exit 3), with at most one ``error:`` line and no warning.  The
library keeps its decisions consistent on the same forms: every block of
``invariant_sets`` passes ``is_invariant``, which refuses a form only when
the eigendecomposition of the whole form fails and ``verify_decomposition``
refuses it too; ``killing_free`` is the conservative verdict of
``classify``; and every form that ``decompose`` accepts has irreducible
fibers carrying the verdicts of their components; ``decompose`` refuses a
form whose normalized measure or fibers A_B / m_B underflow.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ergodec import (
    ErgodecError,
    NotRepresentableError,
    classification_decomposition,
    classify,
    decompose,
    invariant_sets,
    is_invariant,
    verify_decomposition,
)
from ergodec.cli import main
from ergodec.serialize import form_from_json

EXTREMES = [-1e-17, -2.4e-62, -1e-300, 0.0, -0.0, 1e-300, 1e-200, 1e-100, 1e-30, 1e-11, 1e-9,
            0.5, 1.0, 2.0, 1e9, 1e30, 1e100, 1e200, 1e300]
values = st.sampled_from(EXTREMES)
COMMANDS = ("decompose", "classify", "measures", "verify", "superpose", "girsanov --phi random")


@st.composite
def documents(draw):
    """An "edges" document, or a dense "matrix" document, symmetric or not."""
    n = draw(st.integers(1, 5))
    points = [f"p{i}" for i in range(n)]
    doc = {"space": {"points": points, "mu": draw(st.lists(values, min_size=n, max_size=n))}}
    if draw(st.booleans()):
        rows = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(n)]
        if draw(st.booleans()):
            rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        doc["matrix"] = rows
        return doc
    doc["edges"] = [[points[i], points[j], draw(values)]
                    for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    if draw(st.booleans()):
        doc["killing"] = draw(st.lists(values, min_size=n, max_size=n))
    return doc


def run(command: str, path: str):
    """Exit code, stderr text and the warnings of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), "--input", path])
    return code, err.getvalue(), [str(w.message) for w in caught]


#: A negative diagonal entry inside the PSD margin; it is refused.
NEGATIVE_DIAGONAL = {"space": {"points": ["a"], "mu": [1.0]}, "killing": [-2.4e-62]}
#: Blocks inside the validation margins with a negative eigenvalue: the
#: energy floor is held to their Gershgorin bound.
INDEFINITE_BLOCK = {"space": {"points": ["p0", "p1", "p2"], "mu": [1e-300] * 3},
                    "edges": [["p1", "p2", 1e-11]], "killing": [0.0, -1e-17, -1e-17]}
ZERO_DIAGONAL_BLOCK = {"space": {"points": ["p0", "p1"], "mu": [1.0, 1.0]},
                       "edges": [["p0", "p1", 1e-300]], "killing": [-1e-300, -1e-300]}
#: The dropped coupling of p1 leaves its fiber the row sum -1e-17 as its diagonal.
FIBER_NEGATIVE_ROW_SUM = {"space": {"points": ["p0", "p1", "p2"], "mu": [1e-200, 1e-300, 1e-200]},
                          "edges": [["p0", "p2", 1e9], ["p1", "p2", 1e-11]],
                          "killing": [-1e-17, -1e-17, -1e-17]}
#: The coupling -1e-17 between the blocks is a positive entry, not a jump,
#: and the semigroup leaks across it.
POSITIVE_COUPLING = {"space": {"points": ["p0", "p1", "p2", "p3"], "mu": [1e-11] * 4},
                     "edges": [["p0", "p2", 1e-11], ["p1", "p3", 1e-11], ["p2", "p3", -1e-17]]}
#: A negative weight sends the document through the contraction-witness
#: search, whose gains q * q of the jump 1e200 overflow.
WITNESS_GAIN_OVERFLOW = {"space": {"points": ["p0", "p1", "p2", "p3"], "mu": [1e-300] * 4},
                         "edges": [["p0", "p1", 1e200], ["p0", "p2", -1e-17],
                                   ["p2", "p3", 1e-11]]}
#: The total mass overflows to inf; the space is refused.
MASS_OVERFLOW = {"space": {"points": ["a", "b"], "mu": [1e308, 1e308]}, "edges": [["a", "b", 1.0]]}
#: The weight 1.7e308 is finite with its total, but twice it and phi^2 times it overflow.
NEAR_FLOAT_MAX = {"space": {"points": ["p0", "p1", "p2"], "mu": [1.7e308, 1.0, 1.0]},
                  "edges": [["p1", "p2", 1.0]]}
#: The killing 9e307 is above float max / 2: the symmetrized diagonal overflows to inf.
DIAGONAL_OVERFLOW = {"space": {"points": ["p0", "p1"], "mu": [1e-300, 1e300]},
                     "edges": [["p0", "p0", 1e-320]], "killing": [-1.0, 9e307]}
#: Dense matrices that validation accepts within its margins, relative to their
#: largest entry, but that are not diagonally dominant: the coupling 5e8 over
#: mu = 1e-300 does not fit in floats; the couplings of a zero diagonal and the
#: coupling 1e9 past the diagonal 2 set the roundoff of the classification.
DENSE_COUPLING_OUT_OF_RANGE = {"space": {"points": ["p0", "p1", "p2"], "mu": [1e-200, 1e-300, 1e-300]},
                               "matrix": [[1e30, -1e-17, -1e-17], [-1e-17, 0.0, 1e9],
                                          [-1e-17, -1e-17, 0.0]]}
DENSE_ZERO_DIAGONAL = {"space": {"points": ["p0", "p1", "p2"], "mu": [1e-300, 1e-300, 1e-300]},
                       "matrix": [[0.0, -1e-17, -1e-17], [-1e-17, 0.0, -1e-17],
                                  [-1e-17, -2.4e-62, 0.0]]}
DENSE_COUPLING_PAST_DIAGONAL = {
    "space": {"points": ["p0", "p1", "p2", "p3"], "mu": [1e9, 2.0, 1e200, 1e-100]},
    "matrix": [[2.0, 1e-11, 1e9, -0.0], [1e-11, 1e200, 1e-200, -1e-300],
               [1e9, 1e-200, 1e9, -2.4e-62], [-0.0, -1e-300, -2.4e-62, 1e-30]],
}
#: A dense entry above float max / 2 overflows in 0.5 (A + A^T) on the diagonal; off it,
#: it is halved.
DENSE_ABOVE_HALF_MAX = {"space": {"points": ["p0", "p1", "p2"], "mu": [1.0, 1e-300, 1e300]},
                        "matrix": [[1.0, 1.7e308, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 1.7e308]]}


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(documents())
@example(NEGATIVE_DIAGONAL)
@example(WITNESS_GAIN_OVERFLOW)
@example(INDEFINITE_BLOCK)
@example(ZERO_DIAGONAL_BLOCK)
@example(FIBER_NEGATIVE_ROW_SUM)
@example(POSITIVE_COUPLING)
@example(MASS_OVERFLOW)
@example(NEAR_FLOAT_MAX)
@example(DIAGONAL_OVERFLOW)
@example(DENSE_ABOVE_HALF_MAX)
@example(DENSE_COUPLING_OUT_OF_RANGE)
@example(DENSE_ZERO_DIAGONAL)
@example(DENSE_COUPLING_PAST_DIAGONAL)
def test_every_document_has_a_defined_outcome(doc):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "form.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        for command in COMMANDS:
            code, err, caught = run(command, path)
            assert code in (0, 2, 3), (command, code, err)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (command, err)
            assert "criteria disagree" not in err, (command, err)
            assert caught == [], (command, caught)


#: A weight of the normalized measure underflows to 0.
NORMALIZATION_UNDERFLOW = {"space": {"points": ["a", "b"], "mu": [1e-300, 1e300]},
                           "edges": [["a", "b", 1.0]]}
#: The coupling of the one fiber underflows in A_B / m_B.
FIBER_UNDERFLOW = {"space": {"points": ["p0", "p1"], "mu": [1e300, 1.0]},
                   "edges": [["p0", "p1", 1e-100]], "killing": [1e-200, 2.0]}
#: LAPACK's eigh of the whole symmetrized matrix does not converge; the blocks' do.
GLOBAL_EIGH_FAILS = {"space": {"points": ["p0", "p1", "p2", "p3", "p4"],
                               "mu": [1e-300, 1e-30, 1e-100, 1e-30, 1e-300]},
                     "edges": [["p0", "p2", 1e-11], ["p0", "p3", -1e-17], ["p1", "p4", 1e-9],
                               ["p2", "p3", 1e-11]]}


@seed(20261019)
@settings(max_examples=150, deadline=None, database=None)
@given(documents())
@example(NORMALIZATION_UNDERFLOW)
@example(FIBER_UNDERFLOW)
@example(NEGATIVE_DIAGONAL)
@example(WITNESS_GAIN_OVERFLOW)
@example(INDEFINITE_BLOCK)
@example(ZERO_DIAGONAL_BLOCK)
@example(FIBER_NEGATIVE_ROW_SUM)
@example(POSITIVE_COUPLING)
@example(MASS_OVERFLOW)
@example(NEAR_FLOAT_MAX)
@example(GLOBAL_EIGH_FAILS)
@example(DIAGONAL_OVERFLOW)
@example(DENSE_ABOVE_HALF_MAX)
@example(DENSE_COUPLING_OUT_OF_RANGE)
@example(DENSE_ZERO_DIAGONAL)
@example(DENSE_COUPLING_PAST_DIAGONAL)
def test_library_decisions_agree(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            form = form_from_json(doc)
        except ErgodecError:
            return
        try:
            for block in invariant_sets(form):
                assert is_invariant(form, block)[0], block
        except NotRepresentableError:
            # The eigendecomposition of the whole form failed; the dense oracle needs it too.
            with pytest.raises(NotRepresentableError):
                verify_decomposition(decompose(form))
        cls = classify(form)
        assert form.killing_free == cls.conservative
        try:
            dec = decompose(form)
        except NotRepresentableError:
            return
        assert all(len(invariant_sets(fiber)) == 1 for fiber in dec.fibers)
        fibers = classification_decomposition(dec)
        assert fibers.consistent
        assert [c.transient for c in fibers.per_fiber] == [
            c.transient for c in cls.per_component.values()
        ]
