"""Every public function and class of kq has a reader, and every parameter is read.

A public module-level function or class in src/kq must be referenced by
name, attribute or import elsewhere in src/kq, be imported from kq by the
acceptance suite, or be wrapped by the benchmark tracer (a name in the SPANS
table of bench/tracer.py, which is read here and not changed).  Helpers that
only tests call belong in tests/.  Every parameter of every function and
method in src/kq is read in its body (a nested function's read counts): a
parameter nobody reads is a setting that changes nothing.  Lambdas are left
out, since a callback takes the parameters its caller passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kq"


def _names_used(node, skip=None):
    """Names, attribute names and imported names under node, outside the def named skip."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, (ast.FunctionDef, ast.ClassDef)) and cur.name == skip:
            continue
        if isinstance(cur, ast.Name):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        elif isinstance(cur, ast.ImportFrom):
            out.update(alias.name for alias in cur.names)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _public_defs(modules):
    """(module file name, name) of each public top-level function and class."""
    return [
        (module, stmt.name)
        for module, tree in modules.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    ]


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kq"
        for alias in node.names
    }


def _traced_names():
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "SPANS" for t in stmt.targets):
            return {part for _, attr, _ in ast.literal_eval(stmt.value) for part in attr.split(".")}
    raise AssertionError("bench/tracer.py has no SPANS table")


def test_every_public_name_has_a_reader():
    modules = _modules()
    allowed = _acceptance_imports() | _traced_names()
    unread = [
        f"{module}:{name}"
        for module, name in _public_defs(modules)
        if name not in allowed and not any(name in _names_used(tree, skip=name) for tree in modules.values())
    ]
    assert unread == []


def test_a_recursive_call_is_not_a_reader():
    tree = ast.parse("def lone(n):\n    return lone(n - 1)\n\ndef used():\n    return 1\n\nx = used()\n")
    assert "lone" not in _names_used(tree, skip="lone")
    assert "used" in _names_used(tree, skip="used")


def _unread_parameters(tree):
    """(function name, parameter) of each parameter its function's body never loads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *(p for p in (a.vararg, a.kwarg) if p)]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((node.name, p.arg) for p in params if p.arg not in read)
    return out


def test_every_parameter_is_read():
    unread = [
        f"{module}:{name}({param})"
        for module, tree in _modules().items()
        for name, param in _unread_parameters(tree)
    ]
    assert unread == []


def test_an_unread_parameter_is_found():
    tree = ast.parse(
        "def f(a, b, *c, d, **e):\n    return a + c[0] + d + e['x']\n\n"
        "def g(x, y):\n    def h():\n        return x\n    y = 1\n    return h\n\n"
        "k = lambda u, v: u\n"
    )
    assert sorted(_unread_parameters(tree)) == [("f", "b"), ("g", "y")]
