"""Guard: no library code exists only for the tests to call.

Every public module-level function, class or assigned name in
``src/cubespec``, and every public method of a public class, must be
used by code somewhere in ``src/cubespec`` other than its own definition
or assignment, and so must every private module-level function or class
but the dunders: a private helper that its caller has left is dead code.
A use is a name or attribute reference in the syntax tree, so
docstrings, comments and bare imports do not count.  The scan goes by
name only: a method counts as used when anything in the package of the
same name is referenced, so a method named ``mul`` or ``identity`` would
pass on the strength of ``operator.mul`` or ``coeff_group.identity``.
Reference implementations that tests compare the program against live
in ``tests/reference_impl.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public(nodes):
    return [node for node in nodes if isinstance(node, _DEFS) and not node.name.startswith("_")]


def _private(nodes):
    return [
        node
        for node in nodes
        if isinstance(node, _DEFS) and node.name.startswith("_") and not node.name.endswith("__")
    ]


def _assigned(nodes):
    """(name, statement) for every public name that a module-level assignment binds."""
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    bound = isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
                    if bound and not sub.id.startswith("_"):
                        yield sub.id, node


def _definitions_and_uses():
    definitions = []  # (qualified name, module file, definition node)
    private = []  # the same, of the private module-level definitions
    uses = []  # (module file, line, name)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _public(tree.body):
            definitions.append((node.name, path.name, node))
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    definitions.append((f"{node.name}.{method.name}", path.name, method))
        definitions += [(name, path.name, node) for name, node in _assigned(tree.body)]
        private += [(node.name, path.name, node) for node in _private(tree.body)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path.name, node.lineno, node.attr))
    return definitions, private, uses


def _used_outside_itself(module, name, node, uses):
    return any(
        used == name.rpartition(".")[2]
        and not (where == module and node.lineno <= line <= node.end_lineno)
        for where, line, used in uses
    )


def _unused(definitions, uses):
    return sorted(
        f"{module}: {name}"
        for name, module, node in definitions
        if not _used_outside_itself(module, name, node, uses)
    )


def test_every_public_definition_is_used_by_the_package():
    definitions, _, uses = _definitions_and_uses()
    names = {name for name, _, _ in definitions}
    # the scan sees src, methods and assigned names
    assert {"coset_meet", "ComplexIndex.node", "FAMILIES", "DEFAULT_SIZE_CAP"} <= names
    assert _unused(definitions, uses) == []


def test_every_private_module_definition_is_used_by_the_package():
    # a private helper imported by another module counts only where that
    # module uses it, since an import is no name reference
    _, private, uses = _definitions_and_uses()
    names = {name for name, _, _ in private}
    assert {"_corners", "_Window"} <= names  # the scan sees private functions and classes
    assert _unused(private, uses) == []
