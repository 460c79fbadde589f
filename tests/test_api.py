"""The package's public names: each module's __all__, re-exported by tailasym."""

import tailasym
from tailasym import bootstrap, copulas, errors, estimators, pipeline, ranks

MODULES = (ranks, estimators, copulas, bootstrap, pipeline, errors)


def test_all_holds_68_unique_names_that_resolve():
    names = tailasym.__all__
    assert len(names) == 68
    assert len(set(names)) == 68
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
