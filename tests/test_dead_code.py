"""Dead-code guard over the package source, read with the stdlib `ast` only:
every top-level import of a module is used, every private top-level
function or class is referenced by some module of the package, and every
parameter of every function is read in its body."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sqfrep"


def _modules() -> dict:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _reads(tree) -> set:
    """The names a module reads: bare names, attribute names, and the
    entries of its __all__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
    return names


def _imported(tree) -> set:
    """Every name a module binds by a top-level import, and by every other
    module's `from sqfrep.<module> import name` of it (a re-export)."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _imports_from(trees: dict) -> dict:
    """module -> the names other modules import from it by name."""
    found = {name: set() for name in trees}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                home = node.module.removeprefix("sqfrep.")
                if home in found:
                    found[home].update(a.name for a in node.names)
    return found


def _unused_imports(trees: dict) -> list:
    exported = _imports_from(trees)
    return sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _imported(tree) - _reads(tree) - exported[module]
    )


def _unreferenced_private(trees: dict) -> list:
    every = set().union(*map(_reads, trees.values()), *_imports_from(trees).values())
    return sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in every
    )


# Parameters kept although their function never reads them, with the reason.
UNREAD_ALLOWED = {
    "localmodel: model_sum(tables)": "perfbench/spans.py calls it as (ctx, fq, tables)",
    "localmodel: model_diff(tables)": "perfbench/spans.py calls it as (ctx, fq, tables)",
}


def _unread_parameters(trees: dict) -> list:
    """Every parameter of every def, at any depth, that the body of its
    function (nested functions included) never reads; a name that starts
    with _ is exempt, as a slot a caller's signature needs."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{module}: {node.name}({p.arg})"
                for p in params
                if p and not p.arg.startswith("_") and p.arg not in read
            ]
    return sorted(found)


class TestDeadCode:
    def test_every_top_level_import_is_used(self):
        assert _unused_imports(_modules()) == []

    def test_every_private_helper_is_referenced(self):
        assert _unreferenced_private(_modules()) == []

    def test_guard_sees_dead_code(self):
        # the guard itself: a leftover import and an uncalled helper show up
        trees = _modules()
        trees["counting"].body[:0] = ast.parse(
            "from bisect import bisect_left as _leftover\n"
            "def _nothing_calls_this(): pass\n"
        ).body
        assert _unused_imports(trees) == ["counting: _leftover"]
        assert _unreferenced_private(trees) == ["counting: _nothing_calls_this"]

    def test_every_parameter_is_read(self):
        assert _unread_parameters(_modules()) == sorted(UNREAD_ALLOWED)

    def test_guard_sees_unread_parameter(self):
        trees = _modules()
        trees["counting"].body.append(ast.parse("def f(x, unused): return x\n").body[0])
        unread = set(_unread_parameters(trees)) - set(UNREAD_ALLOWED)
        assert unread == {"counting: f(unused)"}
