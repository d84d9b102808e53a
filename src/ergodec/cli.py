"""Command-line front end.

Exit codes: 0 on success, 2 on validation errors (malformed input, a
non-Markovian matrix, an infeasible generator shape) and when the form does
not fit in memory, 3 when a computation succeeds but a residual exceeds the
tolerance or two internal consistency checks disagree.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from importlib import import_module
from itertools import chain

import numpy as np

from ._jsonenc import iterencode
from ._tolerance import RESIDUAL_TOLERANCE, Residual, worst
from .errors import ConsistencyError, ErgodecError, NotMarkovianError
from .forms import _matrix_scale, carre_du_champ, classify, girsanov_transform
from .serialize import (
    _edge_list,
    classification_to_json,
    decomposition_report,
    form_from_json,
    form_to_json,
    residuals_to_json,
)


def _deferred(module: str, name: str):
    """A stand-in for the function ``name`` of ``module``, bound as a global of this module.

    Its first call imports the module, binds the real function in its place
    unless the global has been rebound since (a wrapper set from outside is
    kept), and calls it.  The handlers look these globals up at call time,
    so a command loads only the modules it runs: ``classify``, and a
    ``verify`` that refuses its input, load neither ``ergodic`` nor
    ``direct_integral`` nor ``generate``.
    """

    def stand_in(*args, **kwargs):
        real = getattr(import_module(module, __package__), name)
        if globals().get(name) is stand_in:
            globals()[name] = real
        return real(*args, **kwargs)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


superpose = _deferred(".direct_integral", "superpose")
classification_decomposition = _deferred(".ergodic", "classification_decomposition")
decompose = _deferred(".ergodic", "decompose")
decompose_invariant_measure = _deferred(".ergodic", "decompose_invariant_measure")
ergodic_measures = _deferred(".ergodic", "ergodic_measures")
verify_decomposition = _deferred(".ergodic", "verify_decomposition")
random_form = _deferred(".generate", "random_form")

_COMMANDS = ("decompose", "classify", "verify", "girsanov", "superpose", "measures", "gen")

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path of the instance JSON file")
    common.add_argument("--tolerance", type=float, default=RESIDUAL_TOLERANCE)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--phi", help="comma-separated positive density, or 'random'")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--out", help="output path (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="ergodec",
        description="Decompose, classify and verify energy forms on finite weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "gen":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--components", type=int, required=True)
            p.add_argument("--killing-prob", type=float, default=0.0)
            p.add_argument("--density", type=float, default=0.5)
    return parser


def _check_flags(args) -> None:
    """Refuse the flag values that have no defined outcome."""
    if not 0.0 <= args.tolerance < float("inf"):
        raise ErgodecError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    if args.seed < 0:
        raise ErgodecError(f"--seed must be an integer >= 0, got {args.seed}")
    for flag, value in vars(args).items():
        if flag in ("killing_prob", "density") and not 0.0 <= value <= 1.0:
            raise ErgodecError(f"--{flag.replace('_', '-')} must lie in [0, 1], got {value!r}")


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_form(path):
    if path is None:
        raise ErgodecError("--input is required for this command")
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except FileNotFoundError:
        raise ErgodecError(f"no such file: {path}")
    except OSError as exc:
        raise ErgodecError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ErgodecError(f"cannot read {path}: not {exc.encoding} text")
    except json.JSONDecodeError as exc:
        raise ErgodecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return form_from_json(obj)


def _parse_phi(arg, n, seed):
    if arg is None:
        raise ErgodecError("--phi is required for this command")
    if arg == "random":
        return np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    try:
        values = np.array([float(v) for v in arg.split(",")], dtype=float)
    except ValueError:
        raise ErgodecError(f"--phi must be comma-separated numbers or 'random', got {arg!r}") from None
    if len(values) != n:
        raise ErgodecError(f"--phi needs {n} entries, got {len(values)}")
    return values


def _render_text(obj, indent=0):
    """Yield the lines of the text report, without their newlines."""
    pad = "  " * indent
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, (dict, list)):
                yield f"{pad}{key}:"
                yield from _render_text(value, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar_text(value)}"
    elif isinstance(obj, list):
        for value in obj:
            if isinstance(value, (dict, list)):
                yield f"{pad}-"
                yield from _render_text(value, indent + 1)
            else:
                yield f"{pad}- {_scalar_text(value)}"
    else:
        yield f"{pad}{_scalar_text(obj)}"


def _scalar_text(value) -> str:
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.12g}"


def _worst_text(r: Residual) -> str:
    """The name, value and share of the tolerance of a residual, for the text report."""
    name = " ".join(map(str, r.name)) if isinstance(r.name, tuple) else r.name
    return f"{name} = {_scalar_text(r.value)}, {r.share:.3g} of its tolerance {_scalar_text(r.tolerance)}"


def _emit(report: dict, args) -> None:
    """Write the report, ``json.dumps(report, indent=2)`` or its text lines, and a newline.

    The pieces are handed to the output's buffer as they are encoded, so
    the whole report is never held.  The JSON text is ASCII; the lines of a
    text report are checked against the output's encoding before the first
    one is written, so a report that cannot be encoded writes nothing.  An
    output that cannot be opened or written is an :class:`ErgodecError`
    naming it.
    """
    if args.format == "json":
        pieces = chain(iterencode(report), ("\n",))
    else:
        pieces = (line + "\n" for line in _render_text(report))
    target = args.out or "standard output"
    try:
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as handle:
            if args.format == "text" and handle.encoding:
                for line in _render_text(report):
                    line.encode(handle.encoding, handle.errors)
            handle.writelines(pieces)
    except OSError as exc:
        raise ErgodecError(f"cannot write {target}: {exc.strerror or exc}")
    except UnicodeEncodeError as exc:
        raise ErgodecError(f"cannot write {target}: the report is not {exc.encoding} text")


def _cmd_decompose(args) -> int:
    form = _load_form(args.input)
    dec = decompose(form)
    verification = verify_decomposition(dec, tolerance=args.tolerance)
    classes = classification_decomposition(dec)
    if not classes.consistent:
        raise ConsistencyError("the classifications of the form and of its fibers disagree")
    report = decomposition_report(dec, verification, classes.per_fiber)
    _emit(report, args)
    return 0 if verification.passed else 3


def _cmd_classify(args) -> int:
    form = _load_form(args.input)
    cls = classify(form)
    report = {
        "flags": classification_to_json(cls),
        "conservative_part": list(cls.conservative_part),
        "transient_part": list(cls.transient_part),
        "components": {
            z: {
                "points": list(c.points),
                "conservative": c.conservative,
                "transient": c.transient,
                "recurrent": c.recurrent,
            }
            for z, c in cls.per_component.items()
        },
        "jump": _edge_list(form.space.points, form.matrix),
        "killing": form.killing.tolist(),
        "spectrum": form.spectrum.tolist(),
    }
    _emit(report, args)
    return 0


def _cmd_verify(args) -> int:
    form = _load_form(args.input)
    dec = decompose(form)
    verification = verify_decomposition(dec, tolerance=args.tolerance)
    report = decomposition_report(dec, verification)
    report["passed"] = verification.passed
    if args.format == "text":
        report["worst"] = _worst_text(worst(verification.residuals))
    _emit(report, args)
    return 0 if verification.passed else 3


def _cmd_girsanov(args) -> int:
    form = _load_form(args.input)
    phi = _parse_phi(args.phi, form.n, args.seed)
    transformed = girsanov_transform(form, phi)

    gamma = carre_du_champ(form)
    rng = np.random.default_rng(args.seed)
    defects = [0.0]
    for _ in range(20):
        f = rng.uniform(-1.0, 1.0, size=form.n)
        direct = float(np.dot(gamma(f), transformed.space.mu))  # phi^2 mu
        defects.append(abs(transformed.energy(f) - direct))
    # Relative to 1 + max |A|, as the form defect.
    identity = Residual("identity_defect", float(np.max(defects)) / _matrix_scale(transformed.matrix),
                        args.tolerance)
    _emit({"transformed": form_to_json(transformed), **residuals_to_json((identity,))}, args)
    return 0 if identity.passed else 3


def _cmd_superpose(args) -> int:
    form = _load_form(args.input)
    dec = decompose(form)
    result = superpose(dec.quotient.space, dec.family, dec.fibers)
    # The superposition reassembles the probability-normalized energy.
    target = form.matrix / dec.normalization_scale
    residuals = (
        Residual("superposition_defect", float(np.abs(result.energy_matrix - target).max()), args.tolerance),
        Residual("isomorphism_defect", result.isomorphism_defect, args.tolerance),
    )
    _emit({"scale": dec.normalization_scale, **residuals_to_json(residuals)}, args)
    return 0 if worst(residuals).passed else 3


def _cmd_measures(args) -> int:
    form = _load_form(args.input)
    # The mixture finds the ergodic measures first, so one call serves both.
    if form.killing_free:
        mixture = decompose_invariant_measure(form, form.space.mu, tol=args.tolerance)
        measures = mixture.ergodic
    else:
        mixture, measures = None, ergodic_measures(form)
    report = {
        "ergodic": [
            {"component": list(m.component), "weights": m.weights.tolist()}
            for m in measures
        ],
        "mu_mixture": None,
    }
    if mixture is not None:
        report["mu_mixture"] = {
            "weights": mixture.weights.tolist(),
            "reconstruction_defect": mixture.reconstruction_defect,
        }
    _emit(report, args)
    return 0


def _cmd_gen(args) -> int:
    form = random_form(
        args.seed, args.n, args.components, args.killing_prob, args.density
    )
    _emit(form_to_json(form), args)
    return 0


_HANDLERS = {
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "girsanov": _cmd_girsanov,
    "superpose": _cmd_superpose,
    "measures": _cmd_measures,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return _HANDLERS[args.command](args)
    except NotMarkovianError as exc:
        if exc.witness is not None:
            witness = ", ".join(f"{v:.12g}" for v in np.asarray(exc.witness))
            return _fail(f"{exc} (contraction witness: [{witness}])")
        return _fail(str(exc))
    except ConsistencyError as exc:
        return _fail(str(exc), 3)
    except ErgodecError as exc:
        return _fail(str(exc))
    except MemoryError:
        source = f"of --n {args.n}" if args.command == "gen" else f"in {args.input}"
        return _fail(f"the form {source} does not fit in memory")

