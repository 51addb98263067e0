"""Source hygiene, checked with the stdlib ast: no module in src/comslice imports a
name it never uses, and no module-level private name goes unreferenced there."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "comslice"

# (module, name) imported without a use, each with its reason. The test fails
# when an entry is no longer needed, so a stale exception cannot linger.
UNUSED_IMPORTS_ALLOWED = {
    ("audit", "tokenize"): "a perfbench tracer patch point; it goes with the tracer (ROADMAP item 1)",
}


def modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def imported_names(tree: ast.Module) -> set[str]:
    """The names that the module's imports bind, anywhere in it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def exported_names(tree: ast.Module) -> set[str]:
    """The strings in a module-level ``__all__`` list: a re-export is a use."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {element.value for element in node.value.elts}
    return set()


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a plain name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def definitions(body: list[ast.stmt]) -> set[str]:
    """The names that the functions, classes and assignments of a module or class body define."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assignments whose name starts with one underscore."""
    return {name for name in definitions(tree.body) if name.startswith("_") and not name.startswith("__")}


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (module, name)
        for module, tree in modules().items()
        for name in imported_names(tree) - read_names(tree) - exported_names(tree)
    }
    assert unused == set(UNUSED_IMPORTS_ALLOWED)


def test_no_private_name_is_left_unreferenced():
    trees = modules()
    referenced = {
        alias.name  # imported by another module, under any name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }.union(*map(read_names, trees.values()))
    unreferenced = {
        (module, name) for module, tree in trees.items() for name in private_definitions(tree) - referenced
    }
    assert unreferenced == set()


# what a NamedTuple record would override to hold something other than its fields
TUPLE_OVERRIDES = {"__new__", "__eq__", "__ne__", "__hash__", "__setattr__", "__getnewargs__"}


def test_no_record_overrides_what_makes_it_a_tuple_of_its_fields():
    classes = [node for tree in modules().values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    records = {"NamedTuple"}
    while grown := {c.name for c in classes if c.name not in records and records & read_names(ast.List(c.bases))}:
        records |= grown  # a subclass of a record is a record, in any module
    overrides = {(c.name, name) for c in classes if c.name in records for name in definitions(c.body) & TUPLE_OVERRIDES}
    assert overrides == set()
