"""API quality gates: documentation and export hygiene.

These meta-tests keep the library honest as it grows: every public
module, class, and function must carry a docstring, and every name in
an ``__all__`` must actually exist.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

# Modules whose public API we walk.
_PACKAGES = [
    "repro",
    "repro.api",
    "repro.check",
    "repro.clock",
    "repro.core",
    "repro.events",
    "repro.experiments",
    "repro.media",
    "repro.net",
    "repro.petri",
    "repro.session",
    "repro.temporal",
    "repro.workload",
]


def _walk_modules():
    seen = []
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        seen.append(package)
        if not hasattr(package, "__path__"):
            continue
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue  # importing it would run the CLI
            module = importlib.import_module(f"{package_name}.{info.name}")
            seen.append(module)
    return seen


MODULES = _walk_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_module_has_docstring(self, module):
        assert module.__doc__, f"{module.__name__} lacks a module docstring"

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_public_classes_and_functions_documented(self, module):
        undocumented = []
        for name, item in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(item) or inspect.isfunction(item)):
                continue
            if getattr(item, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not inspect.getdoc(item):
                undocumented.append(name)
        assert not undocumented, (
            f"{module.__name__}: missing docstrings on {undocumented}"
        )

    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_public_methods_documented(self, module):
        undocumented = []
        for class_name, cls in vars(module).items():
            if class_name.startswith("_") or not inspect.isclass(cls):
                continue
            if getattr(cls, "__module__", None) != module.__name__:
                continue
            for method_name, method in vars(cls).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not inspect.getdoc(method):
                    undocumented.append(f"{class_name}.{method_name}")
        assert not undocumented, (
            f"{module.__name__}: missing docstrings on {undocumented}"
        )


class TestExports:
    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_all_names_exist(self, module):
        exported = getattr(module, "__all__", [])
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, f"{module.__name__}: __all__ names missing {missing}"

    def test_top_level_subpackages_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name)


class TestLazySubpackages:
    def test_checker_import_leaves_the_session_stack_unloaded(self):
        # A fresh interpreter: this process has imported everything.
        code = "\n".join([
            "import sys",
            "import repro.check",
            "loaded = {'repro.session', 'repro.api', 'asyncio'} & set(sys.modules)",
            "assert not loaded, loaded",
            "import repro",
            "assert repro.api.Session.__name__ == 'Session'",
            "namespace = {}",
            "exec('from repro import *', namespace)",
            "assert set(repro.__all__) <= set(namespace)",
            "assert namespace['session'] is sys.modules['repro.session']",
        ])
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.not_a_subpackage
