"""Layout guard: every module-level function and class in `src/proto_cil`, and
every method, property, field and `self.name = ...` attribute of those
classes, has a reader in the program itself (`src/` or `perfbench/`), with no
exemption, and every default of a parameter or dataclass field is overridden
by some call there and taken by another, so code, cases and values that only
tests use do not linger in the package. An object's attributes are set only
by its own methods (`self.name = ...`), and the package root binds only
`__version__`: callers import each name from its own module. The parameter
defaults and attribute writes kept anyway are listed below, each with its
reason."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proto_cil"

# attribute assignments other than `self.name = ...` in a method, with the reason
ASSIGNMENT_EXEMPTIONS = {
    # numpy's own flag, which freezes the arrays of prototype states and projections
    "projector._frozen: a.flags.writeable",
}


# parameter defaults kept though no call in the program overrides them, with the reason
DEFAULT_EXEMPTIONS = {
    # the entry point tests call with arguments; the console script calls main()
    "cli.main(argv)",
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
    """(path, parsed module) of every file in `src/` and `perfbench/` but the
    package root, which reads nothing (test_package_root_binds_only_its_version)."""
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths
            if path != PACKAGE / "__init__.py"]


def _package_classes(program):
    """(path, class statement) of every top-level class in `src/proto_cil`."""
    for path, tree in program:
        if path.parent == PACKAGE:
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef):
                    yield path, stmt


def _self_attributes(method):
    """(name, assignment) of each `self.name = ...` in `method`."""
    for node in ast.walk(method):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                yield target.attr, node


def _members(cls: ast.ClassDef):
    """(name, statement) of each method, property and field a class body
    defines, and of each attribute its methods assign (`self.x = ...`), at
    its first assignment."""
    seen = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt.name, stmt
            for name, node in _self_attributes(stmt):
                if name not in seen:
                    seen.add(name)
                    yield name, node
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
        if path.parent != PACKAGE:
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
            if name.startswith("__") and name.endswith("__"):
                continue
            if any(hasattr(base, name) for base in bases):
                continue
            is_field = not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if reads[is_field][name] <= _reads(stmt, is_field)[name]:
                unread.append(f"{path.stem}.{cls.name}.{name}")
    return unread


def _attribute_writes(node) -> list:
    """Attribute targets (`x.name = ...`, `x.name += ...`, `del x.name`) under
    `node`, and its `setattr(...)` calls."""
    return [sub for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, (ast.Store, ast.Del))
            or isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "setattr"]


def foreign_writes() -> list:
    """`module.definition: target` of each attribute write in `src/proto_cil`
    that is not `self.name = ...` in a method of a class."""
    out = []
    for path, tree in _program():
        if path.parent != PACKAGE:
            continue
        for stmt in tree.body:
            own = set()  # the `self.name` targets in the methods of a class
            if isinstance(stmt, ast.ClassDef):
                own = {id(w) for m in stmt.body if isinstance(m, ast.FunctionDef)
                       for w in _attribute_writes(m) if isinstance(w, ast.Attribute)
                       and isinstance(w.value, ast.Name) and w.value.id == "self"}
            where = f"{path.stem}.{stmt.name}" if hasattr(stmt, "name") else \
                f"{path.stem}:{stmt.lineno}"
            out += [f"{where}: {ast.unparse(w)}" for w in _attribute_writes(stmt)
                    if id(w) not in own]
    return out


def _package_functions(program):
    """(path, statement) of every function and method defined in `src/proto_cil`."""
    for path, tree in program:
        if path.parent == PACKAGE:
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield path, node


def _defaulted_parameters(func):
    """(name, index of its slot in a call's positional arguments, or None) of
    each parameter of `func` with a default; a method's `self` takes no slot."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    out = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    return out + [(arg.arg, None) for arg, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
                  if d is not None]


def _defaulted_fields(cls: ast.ClassDef):
    """(name, index of its slot in a call's positional arguments) of each field
    with a default of `cls` if it is a dataclass; none otherwise."""
    if not any(ast.unparse(getattr(d, "func", d)) == "dataclass" for d in cls.decorator_list):
        return []
    fields = [stmt for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return [(stmt.target.id, i) for i, stmt in enumerate(fields) if stmt.value is not None]


def _defaults(program):
    """(`module.callee(parameter)`, callee name, parameter, positional slot) of
    each parameter default of a function and field default of a dataclass in
    `src/proto_cil`."""
    for path, func in _package_functions(program):
        for name, slot in _defaulted_parameters(func):
            yield f"{path.stem}.{func.name}({name})", func.name, name, slot
    for path, cls in _package_classes(program):
        for name, slot in _defaulted_fields(cls):
            yield f"{path.stem}.{cls.name}({name})", cls.name, name, slot


def _calls(program) -> dict:
    """Callee name (`f(...)` or `x.f(...)`) -> every call of that name in the program."""
    calls = {}
    for _, tree in program:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _overrides(call: ast.Call, name: str, slot) -> bool:
    """Whether `call` passes parameter `name` (positional `slot`) by position,
    by keyword or through an unpacked sequence or mapping."""
    return any(k.arg in (name, None) for k in call.keywords) \
        or any(isinstance(a, ast.Starred) for a in call.args) \
        or (slot is not None and len(call.args) > slot)


def unoverridden_defaults() -> list:
    """`module.callee(parameter)` of each default in `src/proto_cil` that no
    call in the program overrides; calls are matched by the callee's name."""
    program = _program()
    calls = _calls(program)
    return [label for label, callee, name, slot in _defaults(program)
            if label not in DEFAULT_EXEMPTIONS
            and not any(_overrides(call, name, slot) for call in calls.get(callee, []))]


def untaken_defaults() -> list:
    """`module.callee(parameter)` of each default in `src/proto_cil` that every
    call in the program overrides, or may override by unpacking its arguments
    (or that it never calls)."""
    program = _program()
    calls = _calls(program)
    return [label for label, callee, name, slot in _defaults(program)
            if all(_overrides(call, name, slot) for call in calls.get(callee, []))]


def test_every_parameter_default_is_overridden_in_the_program():
    """A default that no call in `src/` or `perfbench/` overrides is a case only
    tests take: drop the parameter, or list it with its reason."""
    assert unoverridden_defaults() == []


def test_every_default_is_taken_by_the_program():
    """A default that every call in `src/` and `perfbench/` overrides is a value
    only tests take: drop the default and pass the value at the test's call."""
    assert untaken_defaults() == []


def test_default_exemptions_name_existing_parameters():
    params = {f"{path.stem}.{func.name}({name})" for path, func in _package_functions(_program())
              for name, _ in _defaulted_parameters(func)}
    assert DEFAULT_EXEMPTIONS <= params


def test_every_definition_has_a_reader_outside_tests():
    assert unreferenced_definitions() == []


def test_every_class_member_has_a_reader_outside_tests():
    assert unread_members() == []


def test_only_methods_set_attributes():
    """An object's attributes are set by its own methods: any other attribute
    write in the package (a loop handing per-task values to an object, say)
    is kept in a local instead, or listed with its reason."""
    assert [w for w in foreign_writes() if w not in ASSIGNMENT_EXEMPTIONS] == []


def test_assignment_exemptions_name_existing_writes():
    assert ASSIGNMENT_EXEMPTIONS <= set(foreign_writes())


def test_package_root_binds_only_its_version():
    """Callers import each name from its own module; the package root exports nothing."""
    docstring, *rest = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    assert [ast.unparse(target) for stmt in rest
            for target in getattr(stmt, "targets", [stmt])] == ["__version__"]


def test_no_function_defaults_a_run_default():
    """A value a run uses where its config leaves a key out is written once, as
    that key's default in harness.RULES: no function in `src/` gives a
    parameter of such a name a default of its own."""
    from proto_cil.harness import RULES, defaults

    keys = {key for section in RULES for key in defaults(section)}
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


IDENTITY_CALLS = {"resolve", "samefile", "realpath"}


def test_one_file_identity_rule():
    """Whether two paths name one file is decided by `datahub.file_identity`
    alone: no other code in the package calls `resolve`, `samefile` or
    `os.path.realpath`."""
    stray = []
    for path, tree in _program():
        if path.parent != PACKAGE:
            continue
        helper = {id(node) for stmt in tree.body if path.stem == "datahub"
                  and getattr(stmt, "name", None) == "file_identity" for node in ast.walk(stmt)}
        stray += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in helper
                  and (getattr(node.func, "attr", None) or getattr(node.func, "id", None))
                  in IDENTITY_CALLS]
    assert stray == []


ERROR_CLASSES = {"InputError", "Divergence", "StageFailure"}


def test_one_error_hierarchy():
    """The package defines three exception classes, and every `raise` in `src/`
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
