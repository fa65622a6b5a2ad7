"""Guard: no public library code exists only for the tests to call.

Every public module-level function or class in ``src/cubespec``, and
every public method of a public class, must be used by code somewhere
in ``src/cubespec`` other than its own definition.  A use is a name or
attribute reference in the syntax tree, so docstrings, comments and
bare imports do not count.  The scan goes by name only: a method counts
as used when anything in the package of the same name is referenced, so
a method named ``mul`` or ``identity`` would pass on the strength of
``operator.mul`` or ``coeff_group.identity``.  Reference implementations
that tests compare the program against live in ``tests/reference_impl.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(nodes):
    return [node for node in nodes if isinstance(node, _DEFS) and not node.name.startswith("_")]


def _definitions_and_uses():
    definitions = []  # (qualified name, module file, definition node)
    uses = []  # (module file, line, name)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _public(tree.body):
            definitions.append((node.name, path.name, node))
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    definitions.append((f"{node.name}.{method.name}", path.name, method))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
    return definitions, uses


def _used_outside_itself(module, node, uses):
    return any(
        used == node.name
        and not (where == module and node.lineno <= line <= node.end_lineno)
        for where, line, used in uses
    )


def test_every_public_definition_is_used_by_the_package():
    definitions, uses = _definitions_and_uses()
    names = {name for name, _, _ in definitions}
    assert {"coset_meet", "ComplexIndex.node"} <= names  # the scan sees src and methods
    unused = sorted(
        f"{module}: {name}"
        for name, module, node in definitions
        if not _used_outside_itself(module, node, uses)
    )
    assert unused == []
