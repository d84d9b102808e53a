"""In-process runs of the ergodec CLI, for the traced run.

``run_command`` calls ``ergodec.cli.main`` with the arguments the closed
loop gives the CLI process, its report written to a file and its standard
error captured.  The CLI handlers reach each layer through globals of
``ergodec.cli`` that they look up at call time, so ``cli_spans`` wraps those
globals while it is active: every call then runs inside a span named
``<module>.<function>``, and the program itself is run unchanged.  One span
named ``command.<name>`` covers each whole command.

Probes time the layers a workload's commands do not reach, each call in a
span of its own marked as a probe.  They run on a freshly loaded copy of
the instance, so the first call that needs the eigendecomposition pays for
it, as in the CLI.  On reject-nonmarkov the CLI stops at validation, so the
layers behind it are probed on an accepted counterpart of the same size
made by ``random_form``.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback
from pathlib import Path

import numpy as np

import ergodec.cli as cli
from ergodec.direct_integral import assemble_l2
from ergodec.ergodic import (
    classification_decomposition,
    decompose,
    decompose_invariant_measure,
    ergodic_measures,
    verify_decomposition,
)
from ergodec.forms import DirichletForm, classify, invariant_sets, is_markovian, semigroup
from ergodec.generate import random_form
from ergodec.serialize import decomposition_report, form_from_json, space_from_json
from ergodec.spaces import disintegrate_over_partition

TOLERANCE = 1e-10  # the CLI's default --tolerance

# global of ergodec.cli -> name of the span around its calls
CLI_LAYERS = {
    "form_from_json": "serialize.form_from_json",
    "decompose": "ergodic.decompose",
    "verify_decomposition": "ergodic.verify_decomposition",
    "classification_decomposition": "ergodic.classification_decomposition",
    "decomposition_report": "serialize.decomposition_report",
    "classify": "forms.classify",
    "form_to_json": "serialize.form_to_json",
    "ergodic_measures": "ergodic.ergodic_measures",
    "decompose_invariant_measure": "ergodic.decompose_invariant_measure",
    "_emit": "cli.emit",
    "_fail": "cli.emit",  # writes the error message, with the witness, to stderr
}


class _JsonWithSpans:
    """Stands in for the json module inside ergodec.cli, with ``load`` in a span."""

    def __init__(self, rec):
        self.load = rec.wrap("serialize.json_parse", json.load)

    def __getattr__(self, name):
        return getattr(json, name)


@contextlib.contextmanager
def cli_spans(rec):
    """Wrap the globals of ergodec.cli in spans of ``rec`` while the block runs."""
    originals = {name: getattr(cli, name) for name in (*CLI_LAYERS, "json")}
    for name, span in CLI_LAYERS.items():
        setattr(cli, name, rec.wrap(span, originals[name]))
    cli.json = _JsonWithSpans(rec)
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(cli, name, original)


def run_command(rec, command, path, out: Path):
    """Run one CLI command in-process; returns (exit code, stdout bytes, stderr bytes)."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with rec.span(f"command.{command}"), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([command, "--input", str(path), "--out", str(out)])
        except Exception:
            # The CLI process would end in this traceback with exit code 1; the oracle flags it.
            traceback.print_exc()
            code = 1
    stdout = out.read_bytes() if out.exists() else b""
    return code, stdout, stderr.getvalue().encode()


def run_probes(rec, path, instance_seed, seen):
    """Time every layer the commands on this instance did not reach (names in ``seen`` did)."""
    with open(path) as handle:
        obj = json.load(handle)
    if "matrix" in obj:
        with rec.span("generate.random_form", probe=True):
            counterpart = random_form(
                instance_seed, len(obj["space"]["points"]), 1, 0.0, 0.05
            )

        def fresh():
            return DirichletForm(counterpart.space, counterpart.matrix)

        markov_input = (np.array(obj["matrix"], dtype=float), space_from_json(obj["space"]))
    else:

        def fresh():
            return form_from_json(obj)

        markov_input = None

    def call(name, fn, *args):
        if name in seen:
            return fn(*args)
        with rec.span(name, probe=True):
            return fn(*args)

    form = fresh()
    call("forms.is_markovian", is_markovian, *(markov_input or (form.matrix, form.space)))
    call("forms.spectrum", lambda f: f.spectrum, form)
    call("forms.semigroup", semigroup, form, 1.0)
    partition = call("forms.invariant_sets", invariant_sets, form)
    qmap, family = call(
        "spaces.disintegrate_over_partition",
        disintegrate_over_partition,
        form.space.normalized(),
        partition,
    )
    call("direct_integral.assemble_l2", assemble_l2, qmap.space, family)
    measures = call("ergodic.ergodic_measures", ergodic_measures, form)
    # A mixture of the ergodic measures is invariant, with or without killing.
    eta = sum((m.weights for m in measures), np.zeros(form.n))
    call("ergodic.decompose_invariant_measure", decompose_invariant_measure, form, eta)
    if "forms.classify" not in seen:
        call("forms.classify", classify, fresh())
    if "ergodic.decompose" not in seen:
        # The decompose command's calls, on a form of its own.
        dec = call("ergodic.decompose", decompose, fresh())
        verification = call(
            "ergodic.verify_decomposition",
            lambda d: verify_decomposition(d, tolerance=TOLERANCE),
            dec,
        )
        classes = call(
            "ergodic.classification_decomposition", classification_decomposition, dec
        ).per_fiber
        call("serialize.decomposition_report", decomposition_report, dec, verification, classes)
