"""Source rules the package keeps, checked on its syntax trees.

No failure is swallowed: a bare ``except:`` is forbidden, and a handler of
``Exception`` or ``BaseException`` must re-raise what it caught.  Every name
the benchmark's tracer looks up in the package exists.
"""

import ast
import importlib
import inspect
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


TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_constants() -> dict:
    """The literal lookup tables of the benchmark's tracer, read from its
    syntax tree without importing it; ATTRS maps to its key list."""
    out = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED_MODULES", "TRACED_METHODS", "TRACED_PRIVATE"):
                out[name] = ast.literal_eval(node.value)
            elif name == "ATTRS":
                out[name] = [ast.literal_eval(k) for k in node.value.keys]
    return out


def test_tracer_names_exist():
    # the benchmark's traced runs wrap these names by lookup; a rename in
    # the package must fail here, not in a traced child
    names = tracer_constants()
    assert set(names) == {"TRACED_MODULES", "TRACED_METHODS",
                          "TRACED_PRIVATE", "ATTRS"}
    modules = {short: importlib.import_module(f"sphere_equilibria.{short}")
               for short in names["TRACED_MODULES"]}
    methods = set()
    for short, cls_name, meth in names["TRACED_METHODS"]:
        assert inspect.isfunction(getattr(getattr(modules[short], cls_name),
                                          meth))
        methods.add(f"{short}.{meth}")
    for short, attr in names["TRACED_PRIVATE"]:
        assert inspect.isfunction(getattr(modules[short], attr))
    for name in names["ATTRS"]:
        if name in methods:
            continue
        short, attr = name.split(".")
        fn = getattr(modules[short], attr, None)
        # `install` wraps only public functions defined in the module itself
        assert inspect.isfunction(fn), name
        assert fn.__module__ == modules[short].__name__, name
