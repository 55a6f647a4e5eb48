"""The CI workflow tests what ``pyproject.toml`` declares: its floors job
pins exactly the declared numpy and scipy floors, and its Python matrix
includes the ``requires-python`` floor, so a bump on one side that forgets
the other fails here. The package's ``__version__`` is the version it
declares. Both files are read as text: Python 3.10, the floor itself, has
no ``tomllib``. The named mutants of ``tools/mutants.py``, which CI runs in
a job of its own, still apply to the source and name tests that exist, so
an edit that breaks the list fails here too."""

import ast
import importlib.util
import re
from pathlib import Path

import dfm_em

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
PYPROJECT = (ROOT / "pyproject.toml").read_text()


def _one(pattern, text):
    found = re.findall(pattern, text, re.MULTILINE)
    assert len(found) == 1, f"{pattern!r} matches {found}"
    return found[0]


def test_floors_job_pins_the_declared_dependency_floors():
    declared = dict(re.findall(r'^\s*"(\w+)>=([\d.]+)",?\s*$', PYPROJECT,
                               re.MULTILINE))
    assert set(declared) == {"numpy", "scipy"}
    pins = _one(r'^\s*deps:\s*"([^"]*==[^"]*)"\s*$', WORKFLOW).split()
    assert pins == [f"{name}=={floor}.*" for name, floor in declared.items()]


def test_python_matrix_includes_the_requires_python_floor():
    floor = _one(r'^requires-python\s*=\s*">=([\d.]+)"\s*$', PYPROJECT)
    matrix = _one(r"^\s*python-version:\s*\[(.*)\]\s*$", WORKFLOW)
    assert f'"{floor}"' in [v.strip() for v in matrix.split(",")]


def test_package_version_is_the_declared_version():
    assert _one(r'^version\s*=\s*"([^"]*)"\s*$', PYPROJECT) == dfm_em.__version__


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def _defined(body, name):
    """The class or function named ``name`` among the statements ``body``."""
    return next((node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name), None)


def test_each_mutant_applies_once_and_names_existing_tests():
    for m in _mutants():
        text = (ROOT / "src" / "dfm_em" / m.path).read_text()
        assert text.count(m.old) == 1, f"{m.name}: {m.old!r} not once in {m.path}"
        for test in m.tests:
            path, *names = test.split("::")
            node = ast.parse((ROOT / path).read_text())
            for name in names:
                node = _defined(node.body, name.split("[")[0])
                assert node is not None, f"{m.name}: no {test}"
