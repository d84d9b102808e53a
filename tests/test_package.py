import inspect
import subprocess
import sys

import pytest

import ergodec


def test_all_exports_no_submodules():
    modules = {"errors", "spaces", "forms", "direct_integral", "ergodic", "generate"}
    assert not modules & set(ergodec.__all__)
    assert not [name for name in ergodec.__all__ if inspect.ismodule(getattr(ergodec, name))]
    assert {"decompose", "DirichletForm", "ConsistencyError", "random_form"} <= set(ergodec.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ergodec import *", namespace)
    assert set(ergodec.__all__) <= set(namespace)
    assert "forms" not in namespace


def test_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ergodec; print([m for m in sys.modules if m.startswith('ergodec.')])"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n")


def test_every_public_name_is_the_object_of_its_module():
    for name in ergodec.__all__:
        value = getattr(ergodec, name)
        assert value.__module__.startswith("ergodec.")
        assert value is getattr(sys.modules[value.__module__], name)
    assert ergodec.decompose is ergodec.ergodic.decompose


def test_dir_lists_every_public_name():
    listed = dir(ergodec)
    assert "__all__" in listed
    assert set(ergodec.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ergodec' has no attribute 'nope'$"):
        ergodec.nope
