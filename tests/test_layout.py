"""Layout guard: every module-level function and class in `src/proto_cil` has
a reader in the program itself (`src/` or `perfbench/`), so code that only
tests use does not linger in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proto_cil"


def _names(node) -> set:
    """Identifiers, attribute names, imported names and string constants under `node`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)  # perfbench/spans.py names its targets by string
    return out


def unreferenced_definitions() -> list:
    """`module.name` of each definition named only inside its own body."""
    readers = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    statements = []  # (path, top-level statement, names it uses)
    for path in readers:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            statements.append((path, stmt, _names(stmt)))
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not any(stmt.name in names for _, other, names in statements if other is not stmt):
            unused.append(f"{path.stem}.{stmt.name}")
    return unused


def test_every_definition_has_a_reader_outside_tests():
    assert unreferenced_definitions() == []
