"""Source rules the package keeps, checked on its syntax trees.

No failure is swallowed: a bare ``except:`` is forbidden, and a handler of
``Exception`` or ``BaseException`` must re-raise what it caught.
"""

import ast
import pathlib

import pytest

import sphere_equilibria

SOURCES = sorted(pathlib.Path(sphere_equilibria.__file__).parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}


def broad_handlers_without_reraise(tree: ast.AST) -> list[int]:
    """Line numbers of handlers that catch everything and do not re-raise."""
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = (node.type.elts if isinstance(node.type, ast.Tuple)
                  else [node.type])
        broad = node.type is None or any(
            isinstance(t, ast.Name) and t.id in BROAD for t in caught)
        reraises = any(isinstance(s, ast.Raise) and s.exc is None
                       for stmt in node.body for s in ast.walk(stmt))
        if broad and not reraises:
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_swallowing_handler(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert broad_handlers_without_reraise(tree) == []


@pytest.mark.parametrize("source,bad", [
    ("try:\n    f()\nexcept:\n    pass\n", [3]),
    ("try:\n    f()\nexcept Exception:\n    log()\n", [3]),
    ("try:\n    f()\nexcept (ValueError, BaseException):\n    g()\n", [3]),
    ("try:\n    f()\nexcept BaseException:\n    clean()\n    raise\n", []),
    ("try:\n    f()\nexcept ValueError:\n    pass\n", []),
])
def test_rule_sees_each_form(source, bad):
    assert broad_handlers_without_reraise(ast.parse(source)) == bad
