"""The package's import graph: acyclic, with every import at module level."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import qflab

PACKAGE = Path(qflab.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def test_import_graph_is_acyclic():
    graph = {
        name: {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1}
        for name, tree in MODULES.items()
    }
    assert "gkmult" in graph["densities"]  # the walk sees relative imports
    TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_no_import_inside_a_function():
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom))]
                assert not lines, f"{name}.{fn.name} imports at line(s) {lines}"
