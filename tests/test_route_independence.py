"""Guard: the symbolic route imports no geometry.

The certificates in ``cubespec/verifier.py`` and the group arithmetic in
``cubespec/coeff_group.py`` are one of the two routes that must agree,
so they may not compute through the geometric engine.  ``verifier``
imports ``hyperplane_engine`` only inside ``cross_validate``, which ties
the two routes together, and under ``TYPE_CHECKING`` for annotations;
``coeff_group`` imports no other ``cubespec`` module.  ``Elem`` is the
one vector type of the group: a character is a dual exponent tuple and
a cyclic subgroup is its generator, so no class of their own exists.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"


def _cubespec_imports(node):
    """(line, module) for every import of a ``cubespec`` module under ``node``.

    ``from cubespec import x`` and ``from . import x`` name ``cubespec.x``.
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Import):
            names = [alias.name for alias in sub.names]
        elif isinstance(sub, ast.ImportFrom):
            module = "cubespec" if sub.level else sub.module
            if sub.level and sub.module:
                module = f"cubespec.{sub.module}"
            names = [f"{module}.{a.name}" for a in sub.names] if module == "cubespec" else [module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] == "cubespec":
                yield sub.lineno, name


def _tree(name):
    path = PACKAGE / name
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_type_checking(node):
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"


def test_verifier_imports_the_engine_only_to_cross_validate():
    allowed, elsewhere = [], []
    for node in _tree("verifier.py").body:
        permitted = _is_type_checking(node) or (
            isinstance(node, ast.FunctionDef) and node.name == "cross_validate"
        )
        for line, module in _cubespec_imports(node):
            if module == "cubespec.hyperplane_engine":
                (allowed if permitted else elsewhere).append(line)
    assert len(allowed) == 2  # the scan sees both permitted imports
    assert elsewhere == []


def test_coeff_group_imports_no_other_cubespec_module():
    tree = _tree("coeff_group.py")
    assert any(isinstance(n, ast.ClassDef) and n.name == "Elem" for n in tree.body)
    assert list(_cubespec_imports(tree)) == []


def test_coeff_group_has_one_vector_type():
    tree = _tree("coeff_group.py")
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    assert classes == {"GroupParams", "Elem", "ParameterMismatchError"}
