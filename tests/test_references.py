"""The test references derive what they check on their own: no
``tests/*_reference.py`` imports a private name of the package."""

import ast
from pathlib import Path

import pytest

REFERENCES = sorted(Path(__file__).resolve().parent.glob("*_reference.py"))


def private_imports(source):
    """The names starting with an underscore that ``source`` imports from
    ``markovbsde`` or one of its modules, as "module.name"."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module == "markovbsde" or node.module.startswith("markovbsde."))
            for alias in node.names if alias.name.startswith("_")]


def test_the_guard_sees_a_private_import():
    assert private_imports("from markovbsde.cli import _fmt, main\n"
                           "from markovbsde import (PathBatch,\n    _x)\n"
                           "from markovbsdex import _y\nfrom .chain import _z\n"
                           ) == ["markovbsde.cli._fmt", "markovbsde._x"]


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name)
def test_references_import_no_private_name_of_the_package(path):
    assert private_imports(path.read_text()) == []
