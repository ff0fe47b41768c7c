"""Guards on the per-kind table `problems.KINDS`, on exception handling
and on dead private functions in the package."""

import ast
import json
import re
from pathlib import Path

import pytest

from potline import problems
from potline.generators import gen_contraction, gen_lcp, gen_line, gen_uso
from potline.reductions_opdc import uso_to_opdc
from potline.solvers import brute_force, find_fp, follow_line, lemke

# Per kind: a generated instance, and a solver that returns a certificate
# of it that must verify.
CASES = {
    "plcp": (lambda: gen_lcp(3, 7), lemke),
    "uso": (lambda: gen_uso(2, 1), lambda inst: brute_force(inst)[0]),
    "opdc": (lambda: uso_to_opdc(gen_uso(2, 1)), lambda inst: brute_force(inst)[0]),
    "line": (lambda: gen_line(8, 1), follow_line),
    "contraction": (lambda: gen_contraction(2, 5), find_fp),
}


def _through_json(kind, inst):
    return kind.from_json(json.loads(json.dumps(kind.to_json(inst))))


def test_kinds_are_the_cli_problems():
    assert list(problems.KINDS) == ["plcp", "uso", "opdc", "line", "contraction"]
    assert set(CASES) == set(problems.KINDS)


@pytest.mark.parametrize("name", list(problems.KINDS))
def test_kind_json_roundtrip(name):
    kind = problems.KINDS[name]
    inst = CASES[name][0]()
    back = _through_json(kind, inst)
    assert type(back) is kind.cls
    assert kind.to_json(back) == kind.to_json(inst)


@pytest.mark.parametrize("name", list(problems.KINDS))
def test_verify_accepts_known_good_certificate(name):
    kind = problems.KINDS[name]
    build, solve = CASES[name]
    inst = _through_json(kind, build())
    c = solve(inst)
    decoded = problems.cert_from_json(json.loads(json.dumps(problems.cert_to_json(c))), name)
    assert decoded == c
    assert problems.verify(inst, decoded) is True


def test_no_broad_exception_handlers_in_src():
    src = Path(problems.__file__).parent
    broad = re.compile(r"except\s*(:|Exception\b|BaseException\b)")
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if broad.search(line)
    ]
    assert offenders == []


def test_no_unreferenced_private_functions_in_src():
    src = Path(problems.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unreferenced = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []
