"""The module graph of the mteq package, read from its source with ast: every
import at module level, the absorbing-chain kernels below the solver and the
metrics, and no import cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mteq"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}


def mteq_imports(tree) -> set:
    """The mteq modules that ``tree`` imports, anywhere in it (``__init__``
    for the package itself)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # from .x / from . import x
            found.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names]
            found.update(name.partition(".")[2].partition(".")[0] or "__init__"
                         for name in names if name.partition(".")[0] == "mteq")
    return found


def test_the_package_is_read():
    assert {"chain", "equilibrium", "metrics", "instance", "network", "choice"} <= set(MODULES)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_import_inside_a_function(name):
    local = [f"{name}.py:{inner.lineno}" for node in ast.walk(MODULES[name])
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert local == []


def test_chain_imports_only_network_and_choice():
    assert mteq_imports(MODULES["chain"]) <= {"network", "choice"}


def test_the_import_graph_has_no_cycle():
    graph = {name: mteq_imports(tree) - {name} for name, tree in MODULES.items()}
    assert set().union(*graph.values()) <= set(graph)
    done, path = set(), []

    def visit(name):  # depth first; a module met again on the current path closes a cycle
        assert name not in path, " -> ".join(path[path.index(name):] + [name])
        if name in done:
            return
        path.append(name)
        for other in sorted(graph[name]):
            visit(other)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
