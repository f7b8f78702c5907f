"""Rules on the source of src/hypersens, read from its syntax trees."""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hypersens"

# functions whose callers live outside src/: cli.entry, the console script
# of pyproject.toml; Hypergraph.edge_count and SplitMix64.permutation,
# which the tests use; Hypergraph.relabel, which perfbench's workloads use
CALLED_FROM_OUTSIDE = {"entry", "edge_count", "permutation", "relabel"}


def _references(node):
    """Every name that the tree under node reads: a variable or an
    attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _exported(init: ast.Module) -> set[str]:
    """The names that __init__.py imports from the package's modules."""
    return {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _uncalled(src: pathlib.Path) -> list[str]:
    """The "file:line name" of each function and method in the modules of src
    that is named nowhere in them outside its own definition, except those
    that __init__.py exports, those of CALLED_FROM_OUTSIDE and dunder
    methods, which Python calls itself.  Names are matched by name alone,
    so a method counts as called when any attribute of that name is read."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = Counter(r for tree in trees.values() for r in _references(tree))
    allowed = _exported(trees["__init__.py"]) | CALLED_FROM_OUTSIDE
    uncalled = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            fn = node.name
            if fn in allowed or (fn.startswith("__") and fn.endswith("__")):
                continue
            own = sum(r == fn for r in _references(node))
            if refs[fn] == own:
                uncalled.append(f"{name}:{node.lineno} {fn}")
    return uncalled


def test_every_function_has_a_caller_in_src():
    assert _uncalled(SRC) == []


def test_the_rule_catches_a_function_without_a_caller(tmp_path):
    """A recursive function that nothing else names has no caller, and a
    call from a second function gives it one."""
    (tmp_path / "__init__.py").write_text("from .mod import top\n")
    lone = "def lone(n):\n    return lone(n - 1) if n else 0\n"
    (tmp_path / "mod.py").write_text(lone)
    assert _uncalled(tmp_path) == ["mod.py:1 lone"]
    (tmp_path / "mod.py").write_text(lone + "\n\ndef top():\n    return lone(3)\n")
    assert _uncalled(tmp_path) == []
