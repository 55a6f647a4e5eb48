"""The CI workflow tests what ``pyproject.toml`` declares: its floors job
pins exactly the declared numpy and scipy floors, and its Python matrix
includes the ``requires-python`` floor, so a bump on one side that forgets
the other fails here. Both files are read as text: Python 3.10, the floor
itself, has no ``tomllib``."""

import re
from pathlib import Path

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
