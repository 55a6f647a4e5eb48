"""The CI workflow tests what ``pyproject.toml`` declares: its floors job
pins exactly the declared numpy and scipy floors, and its Python matrix
includes the ``requires-python`` floor, so a bump on one side that forgets
the other fails here. The package's ``__version__`` is the version it
declares. Both files are read as text: Python 3.10, the floor itself, has
no ``tomllib``. For ``tools/mutants.py``, which CI runs in a job of its
own: each mutant listed as equivalent or open is still generated, each
hand-written one still applies once and names tests that exist, and the
generator's ids are stable and local to their function. These checks
parse only, so an edit that breaks the lists fails here, fast."""

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


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defined(body, name):
    """The class or function named ``name`` among the statements ``body``."""
    return next((node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name), None)


def test_each_mutant_applies_once_and_names_existing_tests():
    tool = _tool()
    ids = {m.id for m in tool.all_mutants()}  # a hand mutant not once in its file exits
    assert not set(tool.EQUIVALENT) & set(tool.OPEN)
    assert set(tool.EQUIVALENT) | set(tool.OPEN) <= ids
    for hand, *_, tests in tool.HAND:
        for test in tests:
            path, *names = test.split("::")
            node = ast.parse((ROOT / path).read_text())
            for name in names:
                node = _defined(node.body, name.split("[")[0])
                assert node is not None, f"{hand}: no {test}"


SOURCE = """
def f(x, y):
    if not x < y and y >= 0.5:
        x[1:] += y * 2.0
    x.a = y
    return x - y / 3


def g(a, b):
    return a + b + (a + b)
"""


def test_generated_mutant_ids_are_stable_and_local():
    generate = _tool().generate
    ids = [m.id for m in generate(SOURCE, "m.py")]
    assert ids == [m.id for m in generate(SOURCE, "m.py")]
    assert ids == ["m.py:f:" + rest for rest in (
        "and>or:not x < y and y >= 0.5", "drop-not:not x < y", "lt>le:x < y",
        "ge>gt:y >= 0.5", "float*2:0.5", "add>sub:x[1:] += y * 2.0",
        "del:x[1:] += y * 2.0", "lower+1:1", "mul>div:y * 2.0", "float*2:2.0",
        "del:x.a = y", "sub>add:x - y / 3", "div>mul:y / 3")] + [
        "m.py:g:add>sub:a + b + (a + b)", "m.py:g:add>sub:a + b", "m.py:g:add>sub:a + b#1"]
    edited = SOURCE.replace("    x.a = y\n", "    x.a = y\n    x.b = y - 1.0\n")
    assert [m.id for m in generate(edited, "m.py") if ":g:" in m.id] == ids[-3:]
