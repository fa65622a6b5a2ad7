"""Guard: no public library code exists only for the tests to call.

Every public module-level function or class in ``src/cubespec`` must be
used by code somewhere in ``src/cubespec`` other than its own
definition.  A use is a name or attribute reference in the syntax tree,
so docstrings, comments and bare imports do not count.  Reference
implementations that tests compare the program against live in
``tests/reference_impl.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"


def _definitions_and_uses():
    definitions = {}  # name -> (module file, definition node)
    uses = []  # (module file, line, name)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    definitions[node.name] = (path.name, node)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
    return definitions, uses


def _used_outside_itself(name, module, node, uses):
    return any(
        used == name
        and not (where == module and node.lineno <= line <= node.end_lineno)
        for where, line, used in uses
    )


def test_every_public_definition_is_used_by_the_package():
    definitions, uses = _definitions_and_uses()
    assert "coset_meet" in definitions  # the scan sees src
    unused = sorted(
        f"{module}: {name}"
        for name, (module, node) in definitions.items()
        if not _used_outside_itself(name, module, node, uses)
    )
    assert unused == []

