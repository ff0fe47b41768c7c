"""The package's imports form one acyclic order, all at module level."""

import ast
from pathlib import Path

import potline

SRC = Path(potline.__file__).parent

# Each module imports only modules of earlier layers.
LAYERS = [
    {"rational"},
    {"circuits"},
    {"pivoting"},
    {"problems"},
    {"reductions_line"},
    {"reductions_lcp", "reductions_opdc"},
    {"generators", "solvers"},
    {"cli"},
    {"__init__"},
]
LAYER = {name: i for i, names in enumerate(LAYERS) for name in names}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _package_imports(tree):
    """(line, module) of every import of a potline module in the tree,
    relative (`from .x import`, `from . import x`) or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("potline"):
            names = [node.module[len("potline."):]] if "." in node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name[len("potline."):] for a in node.names if a.name.startswith("potline.")]
        else:
            continue
        yield from ((node.lineno, name.split(".")[0]) for name in names)


def test_every_module_has_a_layer():
    assert set(_trees()) == set(LAYER)


def test_no_import_inside_a_function():
    inner = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner += [f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


def test_imports_follow_the_layers():
    upward = [f"{name}.py:{line} imports {target}"
              for name, tree in _trees().items()
              for line, target in _package_imports(tree)
              if LAYER[target] >= LAYER[name]]
    assert upward == []

