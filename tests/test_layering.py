"""The package's imports form one acyclic order, all at module level, and
every reduction is reached through its view class or `cli.compose`."""

import ast
from pathlib import Path

import potline

SRC = Path(potline.__file__).parent
TESTS = Path(__file__).parent

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



# One-line wrappers of `View(src).image()`, `(view.image(), view)` and
# `view.map_back(c)`, left in `src/` for the benchmark's workloads alone.
DELEGATIONS = {"plcp_to_uso", "uso_to_opdc", "plcp_to_eopl", "opdc_to_ufeopl", "ufeopl_to_plus1",
               "plus1_to_ueopl", "normalize_potentials", "map_back_uso", "map_back_lcp", "map_back_opdc"}


def test_no_module_uses_a_delegation():
    # A call, an import or a reference by name or attribute counts; the
    # wrappers' own definitions do not.
    uses = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            uses += [f"{path.name}:{node.lineno} {name}" for name in names if name in DELEGATIONS]
    assert uses == []
