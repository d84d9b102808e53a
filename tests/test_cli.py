import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from ergodec import decompose, random_form, verify_decomposition
from ergodec.cli import main
from ergodec.serialize import form_from_json, form_to_json

from conftest import spy


def write_form(tmp_path, form, name="form.json"):
    path = tmp_path / name
    path.write_text(json.dumps(form_to_json(form)))
    return str(path)


def test_decompose_command(tmp_path, fx_twin, capsys):
    code = main(["decompose", "--input", write_form(tmp_path, fx_twin)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["nu"] == {"z0": 0.5, "z1": 0.5}
    assert set(report["fibers"]) == {"z0", "z1"}
    assert report["scale"] == 1.0


def test_classify_command(tmp_path, fx_kill, capsys):
    code = main(["classify", "--input", write_form(tmp_path, fx_kill)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flags"]["transient"] is True
    assert report["flags"]["conservative"] is False
    assert report["spectrum"][0] > 0


def test_verify_command(tmp_path, fx_grid, capsys):
    code = main(["verify", "--input", write_form(tmp_path, fx_grid)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_non_markovian_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
        "matrix": [[1.0, 0.5], [0.5, 1.0]],
    }))
    code = main(["decompose", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "witness" in err


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "instance, message",
    [
        ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
          "edges": [["a", "b", float("nan")]]}, "is not finite"),
        ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
          "matrix": [[1.0, float("nan")], [float("nan"), 1.0]]}, "is not finite"),
        ({"space": {"points": ["a", "b"], "mu": [1.0, float("inf")]},
          "edges": [["a", "b", 1.0]]}, "infinite weight at position 1"),
    ],
    ids=["nan-edge-weight", "nan-matrix-entry", "inf-mu-weight"],
)
def test_non_finite_input_exits_2(tmp_path, capsys, command, instance, message):
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps(instance))
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"space": [,}')
    code = main(["decompose", "--input", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_input_exits_2(tmp_path, capsys):
    assert main(["decompose", "--input", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_girsanov_command(tmp_path, fx_edge, capsys):
    code = main([
        "girsanov", "--input", write_form(tmp_path, fx_edge), "--phi", "2,1",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["transformed"]["space"]["mu"] == [4.0, 1.0]
    assert report["transformed"]["edges"][0][2] == 2.5
    assert report["identity_defect"] <= 1e-12


@pytest.mark.parametrize("mu, phi, point", [
    ([1.0] * 5, "1e200,1,1,1,1", "'a', phi^2 mu = (1.000e+200)^2 * 1.000e+00 overflows to inf"),
    ([1.0] * 5, "1e-200,1,1,1,1", "'a', phi^2 mu = (1.000e-200)^2 * 1.000e+00 underflows to 0"),
    ([1.7e308, 1.0, 1.0], "random", "'a', phi^2 mu = (1.137e+00)^2 * 1.700e+308 overflows to inf"),
], ids=["overflow", "underflow", "random-near-float-max"])
def test_girsanov_refuses_a_reweighted_measure_out_of_floats(tmp_path, capsys, mu, phi, point):
    # Each input weight is positive and finite: the refusal names phi^2 mu.
    points = "abcde"[:len(mu)]
    document = {"space": {"points": list(points), "mu": mu},
                "edges": [[x, y, 1.0] for x, y in zip(points, points[1:])]}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(document))
    assert main(["girsanov", "--input", str(path), "--phi", phi]) == 2
    assert capsys.readouterr() == (
        "", f"error: the reweighted measure phi^2 mu does not fit in floats: at point {point}\n"
    )


GIRSANOV_LARGE_ENERGIES = {"space": {"points": ["a", "b", "c"], "mu": [1, 2, 3]},
                           "edges": [["a", "b", 1e9], ["b", "c", 3e9]]}


def test_girsanov_defect_is_relative_to_the_energy_scale(tmp_path, monkeypatch, capsys):
    # The identity defect is divided by 1 + max |A| of the transformed form,
    # so roundoff at energies of order 1e9 passes; a transform that breaks
    # the identity still exits 3.
    import ergodec.cli as cli

    path = tmp_path / "form.json"
    path.write_text(json.dumps(GIRSANOV_LARGE_ENERGIES))
    assert main(["girsanov", "--input", str(path), "--phi", "random"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["identity_defect"] <= 1e-15

    from ergodec import DirichletForm

    transform = cli.girsanov_transform

    def broken(form, phi):
        transformed = transform(form, phi)
        return DirichletForm.from_jump_kernel(transformed.space, 1.001 * transformed.jump)

    monkeypatch.setattr(cli, "girsanov_transform", broken)
    assert main(["girsanov", "--input", str(path), "--phi", "random"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["identity_defect"] > 1e-5


def test_girsanov_killing_exits_2(tmp_path, fx_kill, capsys):
    code = main([
        "girsanov", "--input", write_form(tmp_path, fx_kill), "--phi", "1,1",
    ])
    assert code == 2
    capsys.readouterr()


def test_superpose_command(tmp_path, fx_twin, capsys):
    code = main(["superpose", "--input", write_form(tmp_path, fx_twin)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["superposition_defect"] <= 1e-12


def test_measures_command(tmp_path, fx_twin_kill, capsys):
    code = main(["measures", "--input", write_form(tmp_path, fx_twin_kill)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["ergodic"]) == 2
    assert report["mu_mixture"] is None  # killing present: mu not invariant


def test_measures_mixture(tmp_path, fx_twin, capsys):
    code = main(["measures", "--input", write_form(tmp_path, fx_twin)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu_mixture"]["weights"] == [0.5, 0.5]


def test_gen_component_count(tmp_path):
    out = tmp_path / "instance.json"
    code = main([
        "gen", "--seed", "1", "--n", "8", "--components", "3", "--out", str(out),
    ])
    assert code == 0
    form = form_from_json(json.loads(out.read_text()))
    assert len(decompose(form).fibers) == 3


def test_gen_single_point(tmp_path):
    out = tmp_path / "one.json"
    assert main(["gen", "--seed", "5", "--n", "1", "--components", "1",
                 "--out", str(out)]) == 0
    form = form_from_json(json.loads(out.read_text()))
    assert form.n == 1 and form.energy(np.ones(1)) == 0.0


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--seed", "42", "--n", "12", "--components", "4",
            "--killing-prob", "0.3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_shape_exits_2(tmp_path, capsys):
    assert main(["gen", "--seed", "0", "--n", "2", "--components", "5"]) == 2
    capsys.readouterr()


def test_report_determinism(tmp_path, fx_twin_kill):
    path = write_form(tmp_path, fx_twin_kill)
    a, b = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["decompose", "--input", path, "--out", str(a)]) == 0
    assert main(["decompose", "--input", path, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_text_format(tmp_path, fx_twin, capsys):
    code = main(["decompose", "--input", write_form(tmp_path, fx_twin),
                 "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nu:" in out and "z0: 0.5" in out


def test_verify_text_names_the_worst_residual(tmp_path, fx_grid, capsys):
    path = write_form(tmp_path, fx_grid)
    assert main(["verify", "--input", path, "--tolerance", "1e-300"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert main(["verify", "--input", path, "--tolerance", "1e-300", "--format", "text"]) == 3
    *_, passed, last = capsys.readouterr().out.splitlines()
    residuals = report["residuals"]
    named = {"form": residuals["form"],
             **{f"{key} {t}": v for key in ("semigroup", "resolvent") for t, v in residuals[key].items()},
             "isometry": residuals["isometry"]}
    # Each share is 0 or value / 1e-300; the first largest is named.
    name, value = max(named.items(), key=lambda item: item[1] and item[1] / 1e-300)
    assert passed == "passed: False"
    assert last == f"worst: {name} = {value:.12g}, {value / 1e-300:.3g} of its tolerance 1e-300"


def _printed_residuals(command, report) -> list:
    if command in ("decompose", "verify"):
        r = report["residuals"]
        return [r["form"], *r["semigroup"].values(), *r["resolvent"].values(), r["isometry"]]
    if command == "girsanov":
        return [report["identity_defect"]]
    return [report["superposition_defect"], report["isomorphism_defect"]]


@pytest.mark.parametrize("command", ["decompose", "verify", "girsanov", "superpose"])
def test_the_largest_printed_residual_is_the_pass_boundary(tmp_path, command):
    # The golden single-block instance: killing-free, and every command prints a positive residual.
    path, out = str(tmp_path / "form.json"), tmp_path / "report.json"
    assert main(["gen", "--seed", "2", "--n", "25", "--components", "1", "--out", path]) == 0

    def run(*flags):
        phi = ["--phi", "random"] if command == "girsanov" else []
        code = main([command, "--input", path, "--out", str(out), *phi, *flags])
        return code, out.read_bytes()

    code, report = run()
    assert code == 0
    largest = max(_printed_residuals(command, json.loads(report)))
    assert largest > 0
    failed = report.replace(b'"passed": true', b'"passed": false')  # verify reports the verdict
    assert run("--tolerance", repr(largest)) == (0, report)
    assert run("--tolerance", repr(float(np.nextafter(largest, 0.0)))) == (3, failed)
    assert run("--tolerance", "0") == (3, failed)


def test_module_entry_point(tmp_path, fx_twin):
    path = write_form(tmp_path, fx_twin)
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", "classify", "--input", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["flags"]["recurrent"] is True


def test_importing_the_process_entry_runs_nothing():
    proc = subprocess.run(
        [sys.executable, "-c", "import ergodec.__main__ as entry; print(callable(entry.run))", "decompose"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


def test_cli_module_is_not_a_process_entry(tmp_path):
    # ergodec.__main__.run is the one process entry; running ergodec.cli as a script
    # only imports it.
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec.cli", "gen", "--seed", "1", "--n", "4",
         "--out", str(tmp_path / "g.json")],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_callers_collector_alone(tmp_path, fx_twin, capsys, enabled):
    path = write_form(tmp_path, fx_twin)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["decompose", "--input", path]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


RUN_PROBE = (
    "import gc, json, sys\n"
    "from ergodec.__main__ import run\n"
    "state = sys.argv.pop(1)\n"
    "code = run()\n"
    "with open(state, 'w') as f:\n"
    "    json.dump([code, gc.isenabled(), gc.get_freeze_count()], f)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize("command, document, code", [
    ("decompose", "markov", 0),
    ("verify", "non-markov", 2),
    ("decompose --tolerance 0", "markov", 3),
])
def test_process_entry_runs_main_and_freezes_the_heap(tmp_path, capsys, command, document, code):
    path = tmp_path / "form.json"
    if document == "markov":
        assert main(["gen", "--seed", "1", "--n", "20", "--components", "3", "--out", str(path)]) == 0
    else:
        path.write_text(json.dumps({
            "space": {"points": ["a", "b"], "mu": [1, 1]}, "matrix": [[1, 1], [1, 1]],
        }))
    argv = [*command.split(), "--input", str(path)]
    assert main(argv) == code
    expected = capsys.readouterr()
    state = tmp_path / "state.json"
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE, str(state), *argv], capture_output=True)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (expected.out.encode(), expected.err.encode())
    returned, enabled, frozen = json.loads(state.read_text())
    assert (returned, enabled) == (code, True)
    assert frozen > 0


def test_generate_decompose_verify_round_trip(tmp_path):
    # 100 seeds, n up to 60: generate, decompose, verify, all in-process.
    from ergodec import random_form

    start = time.monotonic()
    rng = np.random.default_rng(123)
    for seed in range(100):
        n = int(rng.integers(2, 61))
        comps = int(rng.integers(1, min(8, n) + 1))
        form = random_form(seed, n, comps, killing_prob=0.2)
        dec = decompose(form)
        assert len(dec.fibers) == comps
        assert verify_decomposition(dec).passed
    assert time.monotonic() - start < 60.0


# Killing 1e-11 at the end of a path, which every command classifies as
# transient, and a tiny weight under a huge jump, which is out of range.
CONSISTENCY_INPUTS = {
    "small-killing-path": {
        "space": {"points": [0, 1, 2], "mu": [1.0, 1.0, 1.0]},
        "edges": [[0, 1, 1.0], [1, 2, 1.0]],
        "killing": [1e-11, 0.0, 0.0],
    },
    "tiny-mu-huge-jump": {
        "space": {"points": ["a", "b"], "mu": [1e-300, 1.0]},
        "edges": [["a", "b", 1e300]],
    },
}


@pytest.mark.parametrize("command", ["classify", "decompose", "measures"])
@pytest.mark.parametrize("instance", sorted(CONSISTENCY_INPUTS))
def test_consistency_failure_exits_3(tmp_path, command, instance):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(CONSISTENCY_INPUTS[instance]))
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", command, "--input", str(path)],
        capture_output=True, text=True,
    )
    if instance == "small-killing-path":
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        verdicts = {"classify": lambda: report["flags"]["transient"],
                    "decompose": lambda: report["fibers"]["z0"]["class"]["transient"],
                    "measures": lambda: report["ergodic"] == []}
        assert verdicts[command]()
    else:
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: the generator does not fit in floats")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


# Generators that do not fit in floats: a tiny weight under a huge jump, and
# one that ended in a LinAlgError traceback.
OUT_OF_RANGE_INPUTS = {
    "tiny-mu-huge-jump": CONSISTENCY_INPUTS["tiny-mu-huge-jump"],
    "huge-killing": {
        "space": {"points": ["p0", "p1", "p2"], "mu": [1e-300, 1e-100, 1e-100]},
        "edges": [["p0", "p2", 1e300]],
        "killing": [-0.0, 1e300, 1e9],
    },
}


@pytest.mark.parametrize("command", ["classify", "decompose", "measures", "verify", "superpose"])
@pytest.mark.parametrize("instance", sorted(OUT_OF_RANGE_INPUTS))
def test_out_of_range_input_exits_2_without_warnings(tmp_path, command, instance):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(OUT_OF_RANGE_INPUTS[instance]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ergodec", command, "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    point = OUT_OF_RANGE_INPUTS[instance]["space"]["points"][0]
    assert proc.stderr.startswith(f"error: the generator does not fit in floats: at point {point!r}")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


# Forms that classify accepts but decompose cannot split in floats: a weight
# of the normalized measure underflows to 0, and a fiber coupling
# underflows in A_B / m_B, which would split the fiber.
UNDERFLOW_INPUTS = {
    "normalization": {
        "space": {"points": ["a", "b"], "mu": [1e-300, 1e300]},
        "edges": [["a", "b", 1.0]],
    },
    "fiber-coupling": {
        "space": {"points": ["p0", "p1"], "mu": [1e300, 1.0]},
        "edges": [["p0", "p1", 1e-100]],
        "killing": [1e-200, 2.0],
    },
}
UNDERFLOW_MESSAGES = {
    "normalization": "error: the normalized measure does not fit in floats: "
                     "mu('a') / 1.000e+300 underflows to 0\n",
    "fiber-coupling": "error: the fibers do not fit in floats: the jump 1.000e-100 from 'p0' to 'p1' "
                      "over their block mass 1.000e+300 underflows\n",
}


@pytest.mark.parametrize("command", ["classify", "decompose", "verify", "measures", "superpose"])
@pytest.mark.parametrize("instance", sorted(UNDERFLOW_INPUTS))
def test_underflow_in_decompose_exits_2(tmp_path, command, instance):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(UNDERFLOW_INPUTS[instance]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ergodec", command, "--input", str(path)],
        capture_output=True, text=True,
    )
    if command == "classify":
        assert (proc.returncode, proc.stderr) == (0, "")
        return
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == UNDERFLOW_MESSAGES[instance]


def test_decompose_exits_3_when_the_classifications_disagree(tmp_path, monkeypatch, capsys, fx_twin):
    import dataclasses

    import ergodec.cli as cli

    classify_fibers = cli.classification_decomposition
    monkeypatch.setattr(cli, "classification_decomposition",
                        lambda dec: dataclasses.replace(classify_fibers(dec), consistent=False))
    assert main(["decompose", "--input", write_form(tmp_path, fx_twin)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the classifications of the form and of its fibers disagree\n"


@pytest.mark.parametrize("command", ["classify", "decompose"])
def test_edge_to_unknown_point_exits_2(tmp_path, command):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
                                "edges": [["a", "c", 1.0]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", command, "--input", str(path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: edge names unknown point 'c'\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["classify", "decompose", "verify", "measures", "superpose"])
def test_negative_diagonal_inside_the_psd_margin_exits_2(tmp_path, capsys, command):
    # The killing -2.4e-62 of an isolated point is its diagonal entry, which
    # the PSD margin lets through; every command refuses it the same way.
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"space": {"points": ["a"], "mu": [1.0]}, "killing": [-2.4e-62]}))
    assert main([command, "--input", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: matrix is not positive semidefinite: A(x, x) = -2.400e-62 < 0 at point 'a'\n"
    )


_GEN = ["gen", "--n", "5", "--components", "1"]


FLAG_CASES = [
    (["verify", "--tolerance", "nan"], "--tolerance must be a finite number >= 0, got nan"),
    (["decompose", "--tolerance", "nan"], "--tolerance must be a finite number >= 0, got nan"),
    (["verify", "--tolerance", "-1"], "--tolerance must be a finite number >= 0, got -1.0"),
    (["superpose", "--tolerance", "nan"], "--tolerance must be a finite number >= 0, got nan"),
    (["measures", "--tolerance", "-1"], "--tolerance must be a finite number >= 0, got -1.0"),
    (["classify", "--tolerance", "inf"], "--tolerance must be a finite number >= 0, got inf"),
    ([*_GEN, "--density", "2"], "--density must lie in [0, 1], got 2.0"),
    ([*_GEN, "--density", "-1"], "--density must lie in [0, 1], got -1.0"),
    ([*_GEN, "--density", "nan"], "--density must lie in [0, 1], got nan"),
    ([*_GEN, "--killing-prob", "2"], "--killing-prob must lie in [0, 1], got 2.0"),
    ([*_GEN, "--killing-prob", "nan"], "--killing-prob must lie in [0, 1], got nan"),
    ([*_GEN, "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    (["girsanov", "--phi", "random", "--seed", "-3"], "--seed must be an integer >= 0, got -3"),
    (["girsanov", "--phi", "1,2,3,4,x"],
     "--phi must be comma-separated numbers or 'random', got '1,2,3,4,x'"),
    (["gen", "--n", "10000000000", "--components", "1"],
     "n=10000000000 points need an n x n matrix larger than any numpy array"),
    (["gen", "--n", "300000", "--components", "1"], "the form of --n 300000 does not fit in memory"),
]


def refuse_large_zeros(monkeypatch):
    """Make ``np.zeros`` raise MemoryError, as numpy does when it cannot allocate, above 1 GiB."""
    zeros = np.zeros

    def allocator(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape).tolist()) * 8 > 2 ** 30:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", allocator)


@pytest.mark.parametrize("argv, message", FLAG_CASES, ids=[" ".join(a) for a, _ in FLAG_CASES])
def test_flag_without_a_defined_outcome_exits_2(
    tmp_path, capsys, monkeypatch, fx_twin, argv, message
):
    path = write_form(tmp_path, fx_twin)
    refuse_large_zeros(monkeypatch)  # the --n 300000 matrix is refused, never allocated
    assert main([*argv, "--input", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_form_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, fx_twin):
    import ergodec.cli

    def out_of_memory(obj):
        raise MemoryError()

    path = write_form(tmp_path, fx_twin)
    monkeypatch.setattr(ergodec.cli, "form_from_json", out_of_memory)
    assert main(["classify", "--input", path]) == 2
    assert capsys.readouterr() == ("", f"error: the form in {path} does not fit in memory\n")


# The shapes of the eigh calls of each command, from the size n of the form
# and the sizes of its invariant blocks.  verify_decomposition, the dense
# oracle, takes the global eigendecomposition and one stacked one per fiber
# size; classify takes one stacked eigendecomposition per block size, which
# on a form with one block is the global one.  In decompose each fiber
# classifies itself from the stacks the oracle cached, and measures reads
# the stacks that classify read.
def stacks(blocks):
    """The (k, s, s) shapes of the blocks stacked by size."""
    return [(k, s, s) for s, k in Counter(blocks).items()]


EIGH_SHAPES = {
    "decompose": lambda n, blocks: [(n, n), *stacks(blocks), *(stacks(blocks) if len(blocks) > 1 else [])],
    "verify": lambda n, blocks: [(n, n), *stacks(blocks)],
    "classify": lambda n, blocks: stacks(blocks) if len(blocks) > 1 else [(n, n)],
    "measures": lambda n, blocks: stacks(blocks) if len(blocks) > 1 else [(n, n)],
    "superpose": lambda n, blocks: [],
    "girsanov": lambda n, blocks: [],
}
EIGEN_FORMS = {
    "single-block": lambda: random_form(2, 25, 1),
    "multi-block": lambda: random_form(1, 30, 4, 0.3),
    "many-blocks": lambda: random_form(5, 200, 60, 0.1),
}


@pytest.mark.parametrize("command", sorted(EIGH_SHAPES))
@pytest.mark.parametrize("instance", sorted(EIGEN_FORMS))
def test_eigendecompositions_of_each_command(tmp_path, monkeypatch, instance, command):
    import ergodec.ergodic
    import ergodec.forms

    from ergodec import invariant_sets

    form = EIGEN_FORMS[instance]()
    path = write_form(tmp_path, form)
    blocks = [len(block) for block in invariant_sets(form)]
    assert (len(blocks) == 1) == (instance == "single-block")
    if instance == "many-blocks":  # blocks of one point, and stacks of more than one block
        assert 1 in blocks and len(set(blocks)) < len(blocks) // 4
    eigh = spy(monkeypatch, np.linalg, "eigh", np.shape)
    eigvalsh = spy(monkeypatch, np.linalg, "eigvalsh", np.shape)
    products = [spy(monkeypatch, module, "semigroup_from_eig", lambda eig, t: np.shape(eig[1]))
                for module in (ergodec.forms, ergodec.ergodic)]
    phi = ["--phi", "random"] if command == "girsanov" else []
    code = main([command, "--input", path, "--out", str(tmp_path / "out.json"), *phi])
    assert code == (2 if command == "girsanov" and not form.killing_free else 0)
    assert sorted(eigh) == sorted(EIGH_SHAPES[command](form.n, blocks))
    assert eigvalsh == []
    if command in ("classify", "measures"):
        assert products == [[], []]  # T_1 is applied to vectors, never built as a matrix


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_emit_streams_the_report_in_batches(tmp_path, monkeypatch, capsys, fmt, to_file):
    # A decompose report at n=200 is written piece by piece as it is
    # encoded: no single write holds the whole report, and its bytes are
    # those of the whole report rendered at once.
    import ergodec.cli as cli

    from ergodec import classification_decomposition, random_form
    from ergodec.serialize import decomposition_report

    path = write_form(tmp_path, random_form(1, 200, 1, 0.0, 0.05))
    with open(path) as handle:
        dec = decompose(form_from_json(json.load(handle)))
    report = decomposition_report(
        dec, verify_decomposition(dec), classification_decomposition(dec).per_fiber
    )
    if fmt == "json":
        expected = json.dumps(report, indent=2) + "\n"
    else:
        expected = "\n".join(cli._render_text(report)) + "\n"

    writes = []

    def recording(handle):
        write = handle.write

        def recorded(text):
            writes.append(len(text))
            return write(text)

        handle.write = recorded
        return handle

    argv = ["decompose", "--input", path, "--format", fmt]
    out = tmp_path / "report.out"
    if to_file:
        monkeypatch.setattr(cli, "open", lambda *a: recording(open(*a)), raising=False)
        argv += ["--out", str(out)]
    else:
        monkeypatch.setattr(sys, "stdout", recording(io.StringIO()))
    assert main(argv) == 0
    written = out.read_text() if to_file else sys.stdout.getvalue()
    assert written == expected
    assert sum(writes) == len(expected)
    assert max(writes) < len(expected)


@pytest.mark.parametrize("command", ["decompose", "classify", "measures"])
def test_commands_build_no_jump_kernel(tmp_path, monkeypatch, capsys, command):
    import ergodec.forms

    from ergodec import random_form

    path = write_form(tmp_path, random_form(3, 30, 4, killing_prob=0.3))
    calls = spy(monkeypatch, ergodec.forms, "_jump", len)
    assert main([command, "--input", path]) == 0
    assert calls == []


# One input per class of malformed document.  Each exits 2 with a single
# error line naming the field, on every command that loads a form.
_SPACE = {"points": ["a", "b", "c"], "mu": [1.0, 1.0, 1.0]}
_EDGES = [["a", "b", 1.0], ["b", "c", 2.0]]
MALFORMED_INPUTS = {
    "killing-length": (
        {"space": _SPACE, "edges": _EDGES, "killing": [1.0, 0.0]},
        "'killing' must be a list of 3 numbers",
    ),
    "edge-not-triple": (
        {"space": _SPACE, "edges": [["a", "b", 1.0], ["a", "c"]]},
        "edge 1 is not an [x, y, w] triple: ['a', 'c']",
    ),
    "weight-not-number": (
        {"space": _SPACE, "edges": [["a", "b", "heavy"]]},
        "edge 0 weight is not a number: 'heavy'",
    ),
    "missing-space": ({"edges": _EDGES}, "the form document has no 'space' field"),
    "points-mu-length": (
        {"space": {"points": ["a", "b"], "mu": [1.0]}},
        "'points' and 'mu' must have equal length",
    ),
    "duplicate-labels": (
        {"space": {"points": ["a", "b", "a"], "mu": [1.0, 1.0, 1.0]}},
        "'points' labels must be distinct; 'a' repeats",
    ),
    "ragged-matrix": (
        {"space": {"points": ["a", "b"], "mu": [1.0, 1.0]}, "matrix": [[1.0, -1.0], [-1.0]]},
        "'matrix' must be a 2 x 2 array of numbers",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, name):
    instance, message = MALFORMED_INPUTS[name]
    path = tmp_path / "form.json"
    path.write_text(json.dumps(instance))
    for command in ("decompose", "classify", "measures"):
        proc = subprocess.run(
            [sys.executable, "-m", "ergodec", command, "--input", str(path)],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n"), command


# Further members of each class, checked in-process.
MALFORMED_VARIANTS = [
    ({"space": _SPACE, "edges": _EDGES, "killing": [[1.0, 0.0, 0.0]]},
     "'killing' must be a list of 3 numbers"),
    ({"space": _SPACE, "edges": _EDGES, "killing": 1.0}, "'killing' must be a list of 3 numbers"),
    ({"space": _SPACE, "edges": _EDGES, "killing": ["x", 0, 0]},
     "'killing' must be a list of 3 numbers"),
    ({"space": _SPACE, "edges": [5]}, "edge 0 is not an [x, y, w] triple: 5"),
    ({"space": _SPACE, "edges": [["a", "b", 1.0, 2.0]]},
     "edge 0 is not an [x, y, w] triple: ['a', 'b', 1.0, 2.0]"),
    ({"space": _SPACE, "edges": None}, "'edges' must be a list of [x, y, w] triples"),
    ({"space": _SPACE, "edges": [["a", "b", None]]}, "edge 0 weight is not a number: None"),
    ({"space": _SPACE, "edges": [["a", "b", 10**400]]},
     "edge 0 weight is not a number: 100000000000000000...0000000000000000000"),
    ({"space": _SPACE, "edges": [[{"k": 1}, "b", 1.0]]},
     "edge 0 names an unhashable point: {'k': 1}"),
    ({"space": {"points": ["a", "b"], "mu": ["x", 1.0]}}, "'mu' must be a list of 2 numbers"),
    ({"space": {"points": ["a", "b"], "mu": [[1.0], [1.0]]}}, "'mu' must be a list of 2 numbers"),
    ([1, 2, 3], "the form document must be a JSON object"),
    ({"space": [1, 2]}, "'space' must be a JSON object"),
    ({"space": {"points": ["a"]}}, "'space' has no 'mu' field"),
    ({"space": {"points": 3, "mu": [1.0]}}, "'points' and 'mu' must be lists"),
    ({"space": {"points": [{"k": 1}, "b"], "mu": [1.0, 1.0]}}, "'points' labels must be hashable"),
    ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]}, "matrix": [[1.0, 0.0, 0.0]] * 3},
     "'matrix' must be a 2 x 2 array of numbers"),
    ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]}, "matrix": [[1.0, "x"], [0.0, 1.0]]},
     "'matrix' must be a 2 x 2 array of numbers"),
]


@pytest.mark.parametrize("instance, message", MALFORMED_VARIANTS)
def test_malformed_variant_exits_2(tmp_path, capsys, instance, message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(instance))
    assert main(["classify", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Inputs that already exited 2 before the format checks keep their message:
# they fail the jump-kernel certificate and reach the validating constructor.
@pytest.mark.parametrize(
    "instance, message",
    [
        ({"space": _SPACE, "edges": [["a", "b", -1.0]]},
         "matrix is not positive semidefinite (min eigenvalue -2.000e+00)"),
        ({"space": _SPACE, "edges": [["a", "b", float("nan")]]}, "matrix entry (0, 0) is not finite"),
        ({"space": _SPACE, "edges": _EDGES, "killing": [-1.0, 0.0, 0.0]},
         "matrix is not positive semidefinite (min eigenvalue -5.182e-01)"),
        ({"space": _SPACE, "edges": _EDGES, "killing": [None, 0.0, 0.0]},
         "matrix entry (0, 0) is not finite"),
        ({"space": {"points": ["a", "a"], "mu": [1.0, -1.0]}}, "non-positive weight at position 1"),
        ({"space": {"points": [], "mu": []}}, "empty weight list"),
    ],
)
def test_invalid_input_keeps_its_message(tmp_path, capsys, instance, message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(instance))
    assert main(["decompose", "--input", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# Non-finite entries, and finite ones whose symmetrization overflows, exit 2
# with the error line alone: no numpy warning reaches stderr.
NON_FINITE_INPUTS = {
    "inf-edge": ({"space": _SPACE, "edges": [["a", "b", float("inf")]]}, "(0, 0)"),
    "overflowing-row": ({"space": _SPACE, "edges": [["a", "b", 1.7e308], ["a", "c", 1.7e308]]},
                        "(0, 0)"),
    "inf-killing": ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
                     "edges": [["a", "b", 1.0]], "killing": [float("inf"), 0.0]}, "(0, 0)"),
    "inf-matrix": ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
                    "matrix": [[1.0, float("inf")], [-float("inf"), 1.0]]}, "(0, 1)"),
    "overflowing-matrix": ({"space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
                            "matrix": [[1e308, -1e308], [-1.7e308, 1e308]]}, "(0, 0)"),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_prints_one_error_line(tmp_path, name):
    instance, entry = NON_FINITE_INPUTS[name]
    path = tmp_path / "form.json"
    path.write_text(json.dumps(instance))
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", "decompose", "--input", str(path)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: matrix entry {entry} is not finite\n"
    )


_PAIR = {"points": ["a", "b"], "mu": [1.0, 1.0]}
_QUAD = {"points": ["a", "b", "c", "d"], "mu": [1.0] * 4}

# Edge documents at the edge of the certificate that builds a form in place:
# (document, exit code, stderr) of ``classify``, or for exit 0 the document
# whose report it must equal.
EDGE_DOCUMENTS = {
    "weight-doubling-overflows": ({"space": _PAIR, "edges": [["a", "b", 1e308]]},
                                  2, "error: matrix entry (0, 0) is not finite\n"),
    "generator-out-of-range": (
        {"space": _SPACE, "edges": [["a", "b", 8e307], ["a", "c", 8e307]]}, 2,
        "error: the generator does not fit in floats: at point 'a', A(x, x) = 1.600e+308 and "
        "A(x, x) / mu(x) = 1.600e+308, above 1.498e+307\n",
    ),
    "row-sum-overflows": ({"space": _QUAD, "edges": [["a", "b", 8e307], ["a", "c", 8e307],
                                                    ["a", "d", 8e307]]},
                          2, "error: matrix entry (0, 0) is not finite\n"),
    "nan-weight": ({"space": _PAIR, "edges": [["a", "b", float("nan")]]},
                   2, "error: matrix entry (0, 0) is not finite\n"),
    "negative-weight": ({"space": _PAIR, "edges": [["a", "b", -1.0]]},
                        2, "error: matrix is not positive semidefinite (min eigenvalue -2.000e+00)\n"),
    "self-loop": ({"space": _PAIR, "edges": [["a", "a", 5.0], ["a", "b", 1.0]]},
                  0, {"space": _PAIR, "edges": [["a", "b", 1.0]]}),
    "both-orientations": ({"space": _PAIR, "edges": [["a", "b", 1.0], ["b", "a", 2.0]]},
                          0, {"space": _PAIR, "edges": [["a", "b", 2.0]]}),
}


@pytest.mark.parametrize("name", sorted(EDGE_DOCUMENTS))
def test_edge_document_outcomes_are_pinned(tmp_path, name):
    instance, code, expected = EDGE_DOCUMENTS[name]

    def classify(doc):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "ergodec", "classify", "--input", str(path)],
            capture_output=True, text=True,
        )
        return proc.returncode, proc.stdout, proc.stderr

    outcome = classify(instance)
    if code == 0:
        assert outcome[0] == 0 and outcome == classify(expected)
    else:
        assert outcome == (code, "", expected)


# Documents whose validation overflows: a diagonal entry above float max / 2
# becomes inf in the symmetrized matrix, and the Gershgorin floor is NaN.
OVERFLOW_DOCUMENTS = {
    "edges-killing-above-half-max": (
        {"space": {"points": ["p0", "p1"], "mu": [1e-300, 1e300]},
         "edges": [["p0", "p0", 1e-320]], "killing": [-1.0, 9e307]},
        "error: matrix entry (1, 1) is not finite\n",
    ),
    "matrix-entry-above-half-max": (
        {"space": {"points": ["p0", "p1"], "mu": [1.0, 1.0]}, "matrix": [[1.0, 0.0], [0.0, 1e308]]},
        "error: matrix entry (1, 1) is not finite\n",
    ),
}


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("name", sorted(OVERFLOW_DOCUMENTS))
def test_overflow_in_validation_exits_2_without_warnings(tmp_path, capsys, command, name):
    document, message = OVERFLOW_DOCUMENTS[name]
    path = tmp_path / "form.json"
    path.write_text(json.dumps(document))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", str(path)])
    assert (code, capsys.readouterr().err) == (2, message)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("case", ["input-directory", "input-not-utf8", "out-missing-directory",
                                  "stdout-not-unicode"])
def test_unreadable_input_or_unwritable_out_exits_2(tmp_path, fx_twin, case):
    path = write_form(tmp_path, fx_twin)
    env = {**os.environ, "PYTHONUTF8": "1"}
    if case == "stdout-not-unicode":
        named = "standard output"
        (tmp_path / "accent.json").write_text(json.dumps(
            {"space": {"points": ["\u00e9", "b"], "mu": [1.0, 1.0]},
             "edges": [["\u00e9", "b", 1.0]]}
        ))
        argv = ["classify", "--format", "text", "--input", str(tmp_path / "accent.json")]
        env["PYTHONIOENCODING"] = "ascii"
    elif case == "input-directory":
        named = str(tmp_path)
        argv = ["decompose", "--input", named]
    elif case == "input-not-utf8":
        named = str(tmp_path / "latin1.json")
        (tmp_path / "latin1.json").write_bytes('{"space": "\u00e9"}'.encode("latin-1"))
        argv = ["decompose", "--input", named]
    else:
        named = str(tmp_path / "missing" / "report.json")
        argv = ["decompose", "--input", path, "--out", named]
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and named in proc.stderr


MODULES_PROBE = (
    "import json, sys\n"
    "from ergodec.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps([m for m in sys.modules if m == 'numpy.random' or m.startswith('ergodec.')]))\n"
    "sys.exit(code)\n"
)


def modules_loaded_by(tmp_path, command, path):
    """Exit code of ``command`` run by ``main`` in a new interpreter, and the modules it loaded
    (``numpy.random`` and those of ``ergodec``)."""
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, command, "--input", path,
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True,
    )
    return proc.returncode, set(json.loads(proc.stdout))


@pytest.mark.parametrize("command", ["decompose", "verify", "superpose", "classify", "measures"])
def test_commands_do_not_import_numpy_random(tmp_path, command):
    from ergodec import random_form

    path = write_form(tmp_path, random_form(3, 30, 3, killing_prob=0.2))
    code, loaded = modules_loaded_by(tmp_path, command, path)
    assert code == 0
    assert "numpy.random" not in loaded


DEFERRED = {"ergodec.ergodic", "ergodec.direct_integral", "ergodec.generate"}


@pytest.mark.parametrize("command, document, code, loads, skips", [
    ("classify", "markov", 0, set(), DEFERRED),
    ("verify", "non-markov", 2, set(), DEFERRED),
    ("decompose", "markov", 0, {"ergodec.ergodic"}, {"ergodec.direct_integral", "ergodec.generate"}),
])
def test_commands_load_only_the_modules_they_run(tmp_path, fx_twin, command, document, code, loads, skips):
    if document == "markov":
        path = write_form(tmp_path, fx_twin)
    else:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "space": {"points": ["a", "b"], "mu": [1.0, 1.0]},
            "matrix": [[1.0, 0.5], [0.5, 1.0]],
        }))
    exit_code, loaded = modules_loaded_by(tmp_path, command, str(path))
    assert exit_code == code
    assert loads <= loaded
    assert not skips & loaded


def test_cli_globals_are_looked_up_at_call_time(tmp_path, monkeypatch, capsys, fx_twin):
    import ergodec.cli as cli
    import ergodec.ergodic

    path = write_form(tmp_path, fx_twin)
    # A stand-in not yet called, as every process starts with, binds the real function.
    monkeypatch.setattr(cli, "decompose", cli._deferred(".ergodic", "decompose"))
    assert main(["verify", "--input", path]) == 0
    assert cli.decompose is ergodec.ergodic.decompose
    # A wrapper set from outside around such a stand-in is called, and stays bound.
    monkeypatch.setattr(cli, "decompose", cli._deferred(".ergodic", "decompose"))
    calls = spy(monkeypatch, cli, "decompose", id)
    wrapper = cli.decompose
    assert main(["verify", "--input", path]) == 0
    assert len(calls) == 1
    assert cli.decompose is wrapper
    capsys.readouterr()


def test_classify_reads_its_edges_without_a_form_document(
    tmp_path, monkeypatch, capsys, fx_twin_kill
):
    import ergodec.cli as cli

    path = write_form(tmp_path, fx_twin_kill)
    documents = spy(monkeypatch, cli, "form_to_json", id)
    assert main(["classify", "--input", path]) == 0
    assert documents == []
    assert json.loads(capsys.readouterr().out)["jump"] == form_to_json(fx_twin_kill)["edges"]


def test_decompose_computes_each_invariant_partition_once(tmp_path, monkeypatch, capsys):
    import ergodec.ergodic
    import ergodec.forms
    import ergodec.spaces

    from ergodec import random_form

    path = write_form(tmp_path, random_form(5, 40, 1))
    forms = spy(monkeypatch, ergodec.forms, "_jump_components", id)
    fibers = spy(monkeypatch, ergodec.ergodic, "_irreducible", lambda stack: stack.shape)
    labelled = spy(monkeypatch, ergodec.spaces, "_canonical_blocks", id)
    checked = spy(monkeypatch, ergodec.spaces.QuotientMap, "__post_init__", id)
    assert main(["decompose", "--input", path]) == 0
    # The global form is searched once, and its one fiber once, as a stack of one.
    assert len(forms) == 1
    assert fibers == [(1, 40, 40)]
    # The quotient is the form's layout: its blocks are not read back from labels or checked again.
    assert labelled == checked == []
    capsys.readouterr()
