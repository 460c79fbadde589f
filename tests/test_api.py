"""The package's public names: each module's __all__, re-exported by tailasym."""

import re
from pathlib import Path

import tailasym
from tailasym import bootstrap, copulas, errors, estimators, pipeline, ranks

MODULES = (ranks, estimators, copulas, bootstrap, pipeline, errors)


def test_all_holds_61_unique_names_that_resolve():
    names = tailasym.__all__
    assert len(names) == 61
    assert len(set(names)) == 61
    assert "__version__" in names
    for name in names:
        assert getattr(tailasym, name) is not None


def test_all_is_the_union_of_the_module_lists():
    from_modules = [name for module in MODULES for name in module.__all__]
    assert tailasym.__all__ == ["__version__", *from_modules]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tailasym, name) is getattr(module, name)


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from tailasym import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tailasym.__all__)


def test_pyproject_declares_the_package_version():
    # Python 3.10 has no tomllib, so the version line is read by pattern.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text("utf-8")
    [version] = re.findall(r'^version = "([^"]+)"$', text, flags=re.MULTILINE)
    assert version == tailasym.__version__
