"""Which edges bound an axis, and which end of it an edge is, is decided in
`geometry` alone: the solver modules name no edge outside their docstrings."""

import ast
from pathlib import Path

import pytest

import fftddm
from fftddm.geometry import EDGES

SOURCE = Path(fftddm.__file__).parent
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def edge_literals(source: str) -> list:
    """'line N: value' for each string constant naming an edge, in any
    case, outside the docstrings of modules, classes and functions."""
    tree = ast.parse(source)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, DOC_OWNERS) and node.body
            and isinstance(node.body[0], ast.Expr)}
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in docs
            and isinstance(node.value, str) and node.value.lower() in EDGES]


@pytest.mark.parametrize("module", ["rectsolver.py", "ddm.py"])
def test_solver_modules_name_no_edge(module):
    found = edge_literals((SOURCE / module).read_text())
    assert not found, f"{module} names edges; ask geometry instead: {found}"


def test_edge_literals_skips_only_docstrings():
    source = ('"""west"""\n'
              'def f(e):\n'
              '    """East"""\n'
              '    return {"North": e, "x": "south"}\n')
    assert edge_literals(source) == ["line 4: 'North'", "line 4: 'south'"]
