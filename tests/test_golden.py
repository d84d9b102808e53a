"""Golden bytes: the sha256 of each report on two generated instances.

The reports print eigenvalues and residuals, whose last bits depend on the
numpy build and the BLAS kernels it picks, so the digests hold for the
build they were taken with (numpy 2.4.6 on x86_64) and the test skips on
any other.  The Python 3.11 CI job pins numpy 2.4.6, so the test runs
there; the 3.10 job installs the latest numpy, which numpy 2.4 does not
support, and skips it.  Run it on such a build before changing a report.
The digests were taken from the reports as they were before
forms kept a single n x n array and ``measures`` ran per component; those
changes must not move a byte.  The multi-block ``classify`` digest was
taken again when the spectrum became the merged spectra of the invariant
blocks: only ``spectrum`` moved, by at most 1.6e-14 (on the value 12.62;
the largest eigenvalue is 32.6).  Both ``verify-text`` digests were taken
again when the text report gained its last line, ``worst:``; the lines
before it did not move.
"""

import hashlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from ergodec.cli import main

pytestmark = pytest.mark.skipif(
    np.__version__ != "2.4.6" or platform.machine() != "x86_64",
    reason="digests pinned with numpy 2.4.6 on x86_64",
)

INSTANCES = {
    "multi-block": "--seed 1 --n 30 --components 4 --killing-prob 0.3",
    "single-block": "--seed 2 --n 25 --components 1",
}

COMMANDS = {
    "decompose": ["decompose"],
    "classify": ["classify"],
    "measures": ["measures"],
    "verify-text": ["verify", "--format", "text"],
    "superpose": ["superpose"],
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# (exit code, sha256 of stdout); stderr is empty on every command.
DIGESTS = {
    ("multi-block", "decompose"): (0, "a672198524adfc73e5a6ac2c336e690a80b530aa8a13219fb2fc167103067cfd"),
    ("multi-block", "classify"): (0, "2a038d1281336478c3c11c86a8b6afd1ece094d51120f3c679d323dcf5cd8ed4"),
    ("multi-block", "measures"): (0, "fb85215a6c28c5a898f1647736d35eebda51e3579a907606558056e65d1a519b"),
    ("multi-block", "verify-text"): (0, "c3606d2362c091fc32448045e2ffafaad87242134099c4559f3483c8bc2ab3d1"),
    ("multi-block", "superpose"): (0, "5c385f96b5c80b4dc870abd0bf0104a5e9632f18aff07aebe3d6a1770ef522d1"),
    ("single-block", "decompose"): (0, "f951ceed2d46c187320c5d8ef4a32f135e998743f44c6d692e958dfbad912d3b"),
    ("single-block", "classify"): (0, "0beebbd2cc72ed05cf7e09b7aad18cec45904c5e67641b236a079b299c01ca79"),
    ("single-block", "measures"): (0, "a870f5d2830765ca91f4cda01d95631736206fd7f0451ce8b57d7c1ea1b5263b"),
    ("single-block", "verify-text"): (0, "e4dd5ab516a9cf77bcef0a1f8272e1ecf482efd3fb56f566f50d630e1dac2df9"),
    ("single-block", "superpose"): (0, "fb5022089ec9fe8b6dcdb037ef5418ede752d943bcec065db4c5e88567a0b000"),
}


@pytest.fixture(scope="module")
def instance_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in INSTANCES.items():
        paths[name] = str(directory / f"{name}.json")
        assert main(["gen", *args.split(), "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("instance, command", sorted(DIGESTS))
def test_report_bytes_are_pinned(instance_paths, instance, command):
    proc = subprocess.run(
        [sys.executable, "-m", "ergodec", *COMMANDS[command], "--input", instance_paths[instance]],
        capture_output=True,
    )
    code, stdout = DIGESTS[instance, command]
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == stdout
    assert hashlib.sha256(proc.stderr).hexdigest() == EMPTY
