"""Guard: each osculation shape is written once, as a row of ``FAMILIES``.

The certificates in ``cubespec/verifier.py`` build their representatives
from the family table, and ``classify_osculation`` reads a witness back
through it.  A case id written anywhere else in ``src/cubespec``, such as
a classifier branch per sub-case, is a second copy of a shape that can
drift from the first.
"""

import ast
from pathlib import Path

from cubespec.verifier import FAMILIES, INTER_OSC_CASES, SELF_OSC_CASES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"
PREFIXES = ("selfosc_", "interosc_")


def _case_ids(node):
    """Every string constant under ``node`` that starts a case id, f-string parts included."""
    return [
        sub
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.startswith(PREFIXES)
    ]


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _top_level(tree, kind, name):
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        if isinstance(node, kind) and name in names + [getattr(node, "name", None)]:
            return node
    raise AssertionError(f"no top-level {name}")


def test_case_ids_are_written_only_in_the_family_table():
    trees = _trees()
    table = _top_level(trees["verifier.py"], ast.Assign, "FAMILIES")
    in_table = _case_ids(table)
    ids = [n.value for n in in_table]
    assert ids == [row.case_id for row in FAMILIES] == list(SELF_OSC_CASES + INTER_OSC_CASES)
    assert len(set(ids)) == 12
    rows = {id(n) for n in in_table}
    elsewhere = [
        (name, n.lineno, n.value)
        for name, tree in trees.items()
        for n in _case_ids(tree)
        if id(n) not in rows
    ]
    assert elsewhere == []


def test_the_classifier_names_no_case():
    classify = _top_level(_trees()["verifier.py"], ast.FunctionDef, "classify_osculation")
    assert [(n.lineno, n.value) for n in _case_ids(classify)] == []
