"""The package's public names: what ``dfm_em/__init__.py`` re-exports is
declared in its module's ``__all__``, every declared name exists, and the
package's own modules use every declared name (a name only the tests call
belongs in the tests)."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dfm_em

MODULES = sorted(m.name for m in pkgutil.iter_modules(dfm_em.__path__))


def _package_imports():
    """(module, name) for every public name ``__init__`` imports."""
    tree = ast.parse(Path(dfm_em.__file__).read_text())
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")]


def test_package_imports_come_from_its_own_modules():
    imports = _package_imports()
    assert imports
    assert {module for module, _ in imports} <= set(MODULES)


@pytest.mark.parametrize("module, name", _package_imports(),
                         ids=lambda v: str(v))
def test_reexported_name_is_declared(module, name):
    mod = importlib.import_module(f"dfm_em.{module}")
    assert name in mod.__all__
    assert getattr(dfm_em, name) is getattr(mod, name)


@pytest.mark.parametrize("module", MODULES)
def test_declared_names_exist(module):
    mod = importlib.import_module(f"dfm_em.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def _names_used_by_the_modules():
    """Every name the package's modules, ``__init__`` not counted, load,
    read as an attribute or import."""
    used = set()
    for module in MODULES:
        tree = ast.parse((Path(dfm_em.__file__).parent / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_declared_names_are_used_by_the_package():
    """A public name that only the tests call is a test oracle in the
    library's API."""
    used = _names_used_by_the_modules()
    unused = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(f"dfm_em.{module}").__all__
              if name not in used]
    assert unused == []


def _modules_loaded_by(statement):
    """The names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter that finds this package's source."""
    src = str(Path(dfm_em.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_does_not_load_scipy_stats():
    """The package and its CLI load nothing beyond what numpy and
    scipy.linalg load themselves from ``scipy.stats`` (about half a second
    and tens of MB), ``scipy.special`` (its quantiles are constants) or the
    process pool (imported only for a parallel Monte Carlo run)."""
    extra = (_modules_loaded_by("import dfm_em, dfm_em.cli")
             - _modules_loaded_by("import numpy, scipy.linalg"))
    unused = sorted(m for m in extra if m.startswith(
        ("scipy.stats", "scipy.special", "concurrent.futures.process",
         "multiprocessing")))
    assert unused == []


def _imported_modules(module):
    """The package modules that ``dfm_em/<module>.py`` imports, by name,
    however the import is written."""
    tree = ast.parse((Path(dfm_em.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "dfm_em" if node.level else ""
            base = ".".join(p for p in (base, node.module) if p)
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("dfm_em.")}


@pytest.mark.parametrize("module", ["metrics", "io"])
def test_module_does_not_import_the_estimators(module):
    """Metrics and file formats read estimates; they do not depend on the
    ridge and ECM estimators that produce some of them."""
    assert "extensions" not in _imported_modules(module)


def test_only_io_opens_a_file():
    """Every file the package reads or writes goes through ``io``, so one
    module decides how a file that cannot be read is refused."""
    openers = set()
    for module in MODULES:
        tree = ast.parse((Path(dfm_em.__file__).parent / f"{module}.py").read_text())
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(tree)):
            openers.add(module)
    assert openers == {"io"}
