import inspect

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
