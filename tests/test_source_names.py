"""Every top-level function and class of `src/kgalign`, and every member
of its classes, is used by the program or by its benchmark, not by the
tests alone; and no module of `src/kgalign` reads another's `_private`
names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "kgalign").glob("*.py"))
USERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))


def is_command(node) -> bool:
    """Whether `node` is decorated with `@cli.command(...)`: click calls
    it, and nothing names it."""
    return any(isinstance(d, ast.Call) and ast.unparse(d.func) == "cli.command"
               for d in node.decorator_list)


def names_used(node):
    """The names, attributes, imported names and string constants in
    `node`; a string can name a function that is looked up by name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_top_level_name_is_used_outside_the_tests():
    defined, used = [], set()
    for path in USERS:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)
            if (path in SRC and isinstance(stmt, (ast.FunctionDef,
                                                  ast.ClassDef))
                    and not is_command(stmt)):
                defined.append((path.name, stmt.name))
            # a definition that names itself does not use itself
            used.update(name for name in names_used(stmt) if name != own)
    assert len(defined) > 100  # the sources were found
    assert [f"{module}: {name}" for module, name in defined
            if name not in used] == []


# (module, class, member) read only by the tests, each with its reader:
# `tests/oracles.reconstruct` rebuilds the raw corpus from the surface
# tokens of each mention, the round trip of acceptance criterion 7
EXEMPT = {("grounding.py", "Token", "surface")}


def class_members(tree):
    """(class, member) of each annotated field, property and non-dunder
    method in the body of each class of `tree`."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                yield cls.name, stmt.target.id
            elif (isinstance(stmt, ast.FunctionDef)
                  and not (stmt.name.startswith("__")
                           and stmt.name.endswith("__"))):
                yield cls.name, stmt.name


def attributes_read(tree):
    """The attributes that `tree` reads: loads, and targets of augmented
    assignments.  A constructor keyword or a string is not a read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.AugAssign)
              and isinstance(node.target, ast.Attribute)):
            yield node.target.attr


def test_every_class_member_is_read_outside_the_tests():
    defined, read = [], set()
    for path in USERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in SRC:
            defined += [(path.name, cls, member)
                        for cls, member in class_members(tree)]
        read.update(attributes_read(tree))
    assert len(defined) > 100  # the sources were found
    assert EXEMPT <= set(defined)
    assert [f"{module}: {cls}.{member}" for module, cls, member in defined
            if member not in read and (module, cls, member) not in EXEMPT
            ] == []


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(tree, modules):
    """`module._name` of each `_private` name that `tree` takes from one
    of the kgalign `modules`, as an attribute or by a relative import."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and is_private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if is_private(alias.name))


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem for path in SRC}
    assert {"alignment", "pipeline", "cli"} <= modules
    assert {path.name: list(private_reads(
        ast.parse(path.read_text(encoding="utf-8")), modules))
        for path in SRC} == {path.name: [] for path in SRC}
