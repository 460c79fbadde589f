"""The package's public names: each module's __all__, re-exported by tailasym,
and the names perfbench wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import tailasym
from tailasym import bootstrap, cli, copulas, errors, estimators, pipeline, ranks

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


def _perfbench_tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_layer_metric_keeps_a_wrap_target():
    # perfbench wraps each name where its caller looks it up; a refactor that
    # stops looking a name up there drops the metrics only that name feeds.
    tracing = _perfbench_tracing()
    # The worker calls cli.main itself, without a TARGETS entry.
    resolved = {"cli.main"} if callable(getattr(cli, "main", None)) else set()
    for module_name, attr, span in tracing.TARGETS:
        if callable(getattr(importlib.import_module(module_name), attr, None)):
            resolved.add(span)
    fed_by = {metric: set(spans) for metric, spans in tracing.SELF_TIME.items()}
    for span, metrics in tracing.COUNTS.items():
        for metric in metrics:
            fed_by.setdefault(metric, set()).add(span)
    assert {metric for metric, spans in fed_by.items() if not spans & resolved} == set()
