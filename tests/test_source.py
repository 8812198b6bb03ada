"""Rules on the package source itself."""

import ast
from pathlib import Path

import tropical_refine

SRC = Path(__file__).resolve().parents[1] / "src"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_src():
    # invariants are enforced with exceptions: `python -O` strips asserts,
    # and a hand-raised AssertionError is not a TropicalError callers catch
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10
    found = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)
                     or isinstance(node, ast.Raise) and node.exc is not None
                     and _raises_assertion_error(node))
    assert found == []


def test_the_source_rule_sees_hand_raised_assertion_errors():
    code = "raise AssertionError('x')\nraise AssertionError\nraise ValueError\n"
    raised = [node for node in ast.walk(ast.parse(code))
              if isinstance(node, ast.Raise)]
    assert [_raises_assertion_error(node) for node in raised] == [
        True, True, False]


def test_every_export_exists_once():
    # a deleted name left in __all__ breaks `from tropical_refine import *`
    names = tropical_refine.__all__
    assert [n for n in names if not hasattr(tropical_refine, n)] == []
    assert len(set(names)) == len(names)
