"""Every top-level function and class of `src/kgalign` is used by the
program or by its benchmark, not by the tests alone."""

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
