"""The one document writer, against ``json.dumps(doc, indent=2) + "\\n"``.

``cubespec.layout`` lays out every document that a command writes: the
complex of ``build`` and the reports of the other commands.  A list
member declared as ``Rows`` is laid out a batch of records at a time
from its template, every other member by ``json.dumps``.
"""

import ast
import itertools
import json
from json.encoder import encode_basestring_ascii as quote
from pathlib import Path

import pytest

from cubespec.layout import BATCH, Rows, pieces

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubespec"

RECORD = '    {\n      "id": %s,\n      "n": %d\n    }'
PAIR = "    [\n      %s,\n      %s\n    ]"


def records(count: int) -> list[dict]:
    return [{"id": f"r/{i}/é", "n": i - 7} for i in range(count)]


def pairs(count: int) -> list[list[str]]:
    return [[f"日本/{i}", f'"{i}"\\\n'] for i in range(count)]


def declared_records(recs: list[dict]) -> Rows:
    def fields(lo, hi):
        return tuple(itertools.chain.from_iterable((quote(r["id"]), r["n"]) for r in recs[lo:hi]))

    return Rows(RECORD, len(recs), fields)


def declared_pairs(rows: list[list[str]]) -> Rows:
    def fields(lo, hi):
        return tuple(map(quote, itertools.chain.from_iterable(rows[lo:hi])))

    return Rows(PAIR, len(rows), fields)


def written(doc: dict) -> str:
    return "".join(pieces(doc))


@pytest.mark.parametrize("count", [0, 1, BATCH, BATCH + 1])
def test_declared_rows_lay_out_as_json_dumps(count):
    recs, rows = records(count), pairs(count)
    stamp = {"tool": "t", "created": "é", "z": [1, {"y": None}]}
    plain = {"params": {"m": 4, "k": 3}, "records": recs, "none": None, "pairs": rows, "stamp": stamp}
    doc = {**plain, "records": declared_records(recs), "pairs": declared_pairs(rows)}
    assert written(doc) == json.dumps(plain, indent=2) + "\n"


@pytest.mark.parametrize("count", [0, 1, BATCH + 1])
def test_rows_as_the_first_and_last_member(count):
    rows = pairs(count)
    assert written({"pairs": declared_pairs(rows)}) == json.dumps({"pairs": rows}, indent=2) + "\n"
    plain = {"clean": True, "pairs": rows}
    doc = {"clean": True, "pairs": declared_pairs(rows)}
    assert written(doc) == json.dumps(plain, indent=2) + "\n"


def test_a_batch_at_a_time():
    rows = pairs(3 * BATCH + 5)
    got = list(pieces({"pairs": declared_pairs(rows)}))
    assert "".join(got) == json.dumps({"pairs": rows}, indent=2) + "\n"
    per_piece = [piece.count("    [\n") for piece in got]  # rows begun in each piece
    assert sum(per_piece) == len(rows) and max(per_piece) == BATCH


def _dumps_with_indent(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) == "dumps"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]


def test_only_the_writer_lays_out_documents():
    """Only ``cubespec.layout`` calls ``json.dumps`` with ``indent`` or
    holds a batch size, so every command writes through it."""
    found, batches = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = _dumps_with_indent(tree)
        if lines:
            found[path.name] = lines
        names = [
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and "BATCH" in target.id
        ]
        if names:
            batches[path.name] = names
    assert list(found) == ["layout.py"]
    assert batches == {"layout.py": ["BATCH"]}
