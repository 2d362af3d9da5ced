"""Layout guard: every module-level function and class in `src/proto_cil`, and
every method, property and field of those classes, has a reader in the
program itself (`src/` or `perfbench/`), so code that only tests use does not
linger in the package."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proto_cil"

# class members kept without a reader in the program, with the reason
MEMBER_EXEMPTIONS = {
    # the denoiser's per-epoch training curve: acceptance criterion 5 checks that
    # it falls, and the run diagnostics of ROADMAP item 5 are to report it
    "rpca.RpcaModel.epoch_losses",
}


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


def _reads(node, fields=False) -> Counter:
    """Attribute loads (`x.name`) and string constants under `node`, counted.
    With `fields`, the callee of a call is left out: `x.name(...)` calls a
    method (`list.index`, say) and reads no field of that name."""
    callees = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) \
                and not (fields and id(sub) in callees):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1  # getattr(x, "name"), vars(x)[...], rule tables
    return out


def _program():
    """(path, parsed module) of every file in `src/` and `perfbench/`."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _package_classes(program):
    """(path, class statement) of every top-level class in `src/proto_cil`."""
    for path, tree in program:
        if path.parent == PACKAGE and path.name != "__init__.py":
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef):
                    yield path, stmt


def _members(cls: ast.ClassDef):
    """(name, statement) of each method, property and field a class body defines."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    yield target.id, stmt


def unreferenced_definitions() -> list:
    """`module.name` of each definition named only inside its own body."""
    statements = []  # (path, top-level statement, names it uses)
    for path, tree in _program():
        for stmt in tree.body:
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


def unread_members() -> list:
    """`module.Class.member` of each class member that no code outside its own
    body reads; a call reads a method, not a field. Dunders (Python calls
    them) and overrides of a base-class member (the base's caller reads them)
    are not checked."""
    program = _program()
    reads = {False: Counter(), True: Counter()}  # keyed by "is a field"
    for _, tree in program:
        for is_field, counts in reads.items():
            counts.update(_reads(tree, is_field))
    unread = []
    for path, cls in _package_classes(program):
        bases = importlib.import_module(f"proto_cil.{path.stem}").__dict__[cls.name].__mro__[1:]
        for name, stmt in _members(cls):
            qualified = f"{path.stem}.{cls.name}.{name}"
            if (name.startswith("__") and name.endswith("__")) or qualified in MEMBER_EXEMPTIONS:
                continue
            if any(hasattr(base, name) for base in bases):
                continue
            is_field = not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if reads[is_field][name] <= _reads(stmt, is_field)[name]:
                unread.append(qualified)
    return unread


def test_every_definition_has_a_reader_outside_tests():
    assert unreferenced_definitions() == []


def test_every_class_member_has_a_reader_outside_tests():
    assert unread_members() == []


def test_member_exemptions_name_existing_members():
    members = {f"{path.stem}.{cls.name}.{name}"
               for path, cls in _package_classes(_program()) for name, _ in _members(cls)}
    assert MEMBER_EXEMPTIONS <= members


def test_no_function_defaults_a_run_default():
    """A value a run uses where its config leaves a key out is written once, in
    harness.DEFAULTS: no function in `src/` gives a parameter of such a name a
    default of its own."""
    from proto_cil.harness import DEFAULTS

    keys = {key for section in DEFAULTS.values() for key in section}
    defaulted = []
    for path, tree in _program():
        if ROOT / "src" not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaulted += [f"{path.stem}.{node.name}({arg.arg})" for arg in with_default
                              if arg.arg in keys]
    assert defaulted == []


ERROR_CLASSES = {"InputError", "Divergence", "ConfigError", "DataError", "StageFailure"}


def test_one_error_hierarchy():
    """The package defines five exception classes, and every `raise` in `src/`
    names one of them or OSError, or re-raises."""
    program = [(path, tree) for path, tree in _program() if ROOT / "src" in path.parents]
    defined = {cls.name for path, cls in _package_classes(program) if issubclass(
        getattr(importlib.import_module(f"proto_cil.{path.stem}"), cls.name), BaseException)}
    assert defined == ERROR_CLASSES
    allowed = ERROR_CLASSES | {"OSError"}
    stray = [f"{path.stem}:{node.lineno}" for path, tree in program for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and node.exc is not None
             and not (isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
                      and node.exc.func.id in allowed)]
    assert stray == []
