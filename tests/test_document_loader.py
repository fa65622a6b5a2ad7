"""The document loader against the record-building reference loader.

``complex_from_json`` reads the text of a document straight into its
integer view.  ``reference_impl.complex_from_json`` builds the
``Vertex``/``Edge``/``Square`` records it replaced from the parsed
document, and ``reference_impl.indexed`` then indexes them.  On every
document the two must agree: the same view, ``params`` included, or the
same ``ComplexFormatError`` message, and the program loader must raise
nothing else.  Documents are built truncations and hand-made complexes,
whole or with up to three faults put in, and texts with a repeated
top-level key.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from cubespec import complex_model
from cubespec.coeff_group import GroupParams
from cubespec.complex_model import (
    Cells,
    ComplexFormatError,
    build_quotient_complex,
    complex_from_json,
    complex_to_json,
    validate_complex,
)

from test_complex_model import complexes, written
from test_integer_kernels import glued_complexes

SECTIONS = ("vertices", "edges", "squares")
FIELDS = {
    "vertices": ("id", "height"),
    "edges": ("id", "tail", "head", "type"),
    "squares": ("id", "boundary"),
}
BUILDS = [(4, 2, -1, 1), (3, 3, 0, 2), (4, 3, -1, 1), (3, 2, -2, 1)]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), st.text("ab+-", max_size=2)
)
json_values = st.one_of(
    scalars, st.lists(scalars, max_size=2), st.dictionaries(st.text("ab", max_size=1), scalars, max_size=2)
)
non_dicts = st.one_of(scalars, st.lists(scalars, max_size=2))


@functools.lru_cache(maxsize=None)
def built_text(m, k, lo, hi):
    return written(build_quotient_complex(GroupParams(m, k), lo, hi))


@st.composite
def documents(draw) -> dict:
    """A valid document: a small build, or a hand-made complex written out."""
    source = draw(st.sampled_from(["built", "built", "hand", "glued"]))
    if source == "built":
        return json.loads(built_text(*draw(st.sampled_from(BUILDS))))
    X = draw(complexes() if source == "hand" else glued_complexes())
    return json.loads(ref.complex_to_json(X))


def records(doc, section):
    """The section's records that are still objects, when the section is a list."""
    recs = doc.get(section) if isinstance(doc, dict) else None
    return [r for r in recs if isinstance(r, dict)] if isinstance(recs, list) else []


def sides(doc):
    return [
        side
        for rec in records(doc, "squares")
        if isinstance(rec.get("boundary"), list)
        for side in rec["boundary"]
        if isinstance(side, dict)
    ]


def mutate(draw, doc) -> None:
    """Put one drawn fault into ``doc``, where it has a place for it."""
    kind = draw(
        st.sampled_from(
            ["drop", "retype", "bool_float", "duplicate", "dangle", "dir", "count",
             "non_dict", "flip", "swap_edge", "params", "section"]
        )
    )
    section = draw(st.sampled_from(SECTIONS + ("squares",)))  # squares have the most fields
    recs = records(doc, section)
    rec = draw(st.sampled_from(recs)) if recs else None
    all_sides = sides(doc)
    side = draw(st.sampled_from(all_sides)) if all_sides else None
    if kind == "drop" and rec is not None:
        if side is not None and draw(st.booleans()):
            side.pop(draw(st.sampled_from(["edge", "dir"])), None)
        else:
            rec.pop(draw(st.sampled_from(FIELDS[section])), None)
    elif kind == "retype" and rec is not None:
        if side is not None and draw(st.booleans()):
            side[draw(st.sampled_from(["edge", "dir"]))] = draw(json_values)
        else:
            rec[draw(st.sampled_from(FIELDS[section]))] = draw(json_values)
    elif kind == "bool_float" and section != "squares" and rec is not None:
        key = "height" if section == "vertices" else "type"
        rec[key] = draw(st.sampled_from([True, False, 1.5, 0.0, -2.0]))
    elif kind == "duplicate" and len(recs) > 1:
        a, b = draw(st.lists(st.sampled_from(recs), min_size=2, max_size=2, unique_by=id))
        if "id" in b:
            a["id"] = b["id"]
    elif kind == "dangle":
        to = draw(st.sampled_from(["nowhere", "v/9/9", *[r.get("id") for r in recs[:3]]]))
        edges = records(doc, "edges")
        if side is not None and draw(st.booleans()):
            side["edge"] = to
        elif edges:
            draw(st.sampled_from(edges))[draw(st.sampled_from(["tail", "head"]))] = to
    elif kind == "dir" and side is not None:
        side["dir"] = draw(st.sampled_from(["x", "", "+-", "++", None, 1, True, ["+"]]))
    elif kind == "count":
        squares = records(doc, "squares")
        if squares:
            square = draw(st.sampled_from(squares))
            boundary = square.get("boundary")
            if isinstance(boundary, list) and boundary and draw(st.booleans()):
                square["boundary"] = boundary[:-1] if draw(st.booleans()) else boundary + boundary[:1]
            else:
                square["boundary"] = draw(st.sampled_from(["abcd", "", {}, None, 4]))
    elif kind == "non_dict":
        target = doc.get(section) if isinstance(doc, dict) else None
        squares = records(doc, "squares")
        if squares and draw(st.booleans()):
            boundary = draw(st.sampled_from(squares)).get("boundary")
            if isinstance(boundary, list) and boundary:
                boundary[draw(st.integers(0, len(boundary) - 1))] = draw(non_dicts)
        elif isinstance(target, list) and target:
            target[draw(st.integers(0, len(target) - 1))] = draw(non_dicts)
    elif kind == "flip" and side is not None and side.get("dir") in ("+", "-"):
        side["dir"] = "-" if side["dir"] == "+" else "+"
    elif kind == "swap_edge" and side is not None:
        edges = records(doc, "edges")
        if edges:
            side["edge"] = draw(st.sampled_from(edges)).get("id")
    elif kind == "params" and isinstance(doc, dict):
        params = doc.get("params")
        if isinstance(params, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(["m", "k"]))
            if draw(st.booleans()):
                params.pop(key, None)
            else:
                params[key] = draw(st.one_of(json_values, st.integers(-1, 3)))
        else:
            doc["params"] = draw(st.one_of(json_values, st.just({"m": 4})))
    elif kind == "section" and isinstance(doc, dict):
        if draw(st.booleans()):
            doc.pop(section, None)
        else:
            doc[section] = draw(st.one_of(scalars, st.dictionaries(st.text("a", max_size=1), scalars, max_size=1)))


@st.composite
def mutated_documents(draw, faults) -> dict:
    doc = draw(documents())
    for _ in range(faults):
        mutate(draw, doc)
    return doc


def outcome(load, doc):
    """The view a loader returns, or the message of its ComplexFormatError."""
    try:
        return load(doc)
    except ComplexFormatError as exc:
        return str(exc)


def reference(doc):
    return ref.indexed(ref.complex_from_json(doc))


def loaded(text):
    """``complex_from_json`` of a text, read from a stream."""
    return complex_from_json(io.StringIO(text))


def read_columns(text):
    """The reader's columns of a text, or None when it does not take the text."""
    return complex_model._read_columns(io.StringIO(text))


class TestAgainstReferenceLoader:
    @given(mutated_documents(faults=1))
    @settings(max_examples=400, deadline=None)
    def test_one_fault(self, doc):
        assert outcome(loaded, json.dumps(doc)) == outcome(reference, doc)

    @given(st.integers(2, 3).flatmap(lambda n: mutated_documents(faults=n)))
    @settings(max_examples=200, deadline=None)
    def test_several_faults(self, doc):
        # the first fault in the reference's order wins
        assert outcome(loaded, json.dumps(doc)) == outcome(reference, doc)

    @given(documents())
    @settings(max_examples=150, deadline=None)
    def test_valid_documents(self, doc):
        got = loaded(json.dumps(doc))
        assert got == reference(doc)
        assert got.params == (None if doc["params"] is None else GroupParams(**doc["params"]))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("vertices", 3, "height"), True, r"^vertices\[3\]\.height: expected an integer"),
            (("edges", 2, "type"), 1.5, r"^edges\[2\]\.type: expected an integer"),
            (("edges", 4, "id"), "e/1/1/0,0,0,0", r"^edges\[4\]: duplicate edge id"),
            (("edges", 1, "head"), "v/9/9", r"^edges\['e/1/1/[01,]+'\]: unknown vertex 'v/9/9'"),
            (("squares", 5, "boundary", 2, "edge"), "e/9/9", r"\.boundary\[2\]\.edge: unknown edge"),
            (("squares", 5, "boundary", 1, "dir"), "x", r"^squares\[5\]\.boundary\[1\]\.dir: "),
            (("squares", 0, "boundary"), "abcd", r"^squares\[0\]\.boundary: expected a list"),
            (("squares", 3, "boundary", 0), ["e", "+"], r"^squares\[3\]\.boundary\[0\]: expected an object"),
            (("vertices", 0), "v", r"^vertices\[0\]: expected an object"),
            (("squares", 2, "boundary", 0, "dir"), "-", r"walk does not close"),
        ],
    )
    def test_each_fault_kind(self, path, value, message):
        # every kind of fault is reachable, with the reference's message
        doc = json.loads(built_text(4, 2, 0, 2))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        want = outcome(reference, doc)
        assert isinstance(want, str)
        assert outcome(loaded, json.dumps(doc)) == want
        assert re.search(message, want)


# ---------------------------------------------------------------------------
# the text reader against the parsed document


def text_outcome(text):
    """What ``complex_from_json`` makes of a text: a view or a message."""
    return outcome(loaded, text)


def parsed_outcome(text):
    """The same text parsed whole and checked by the reference loader."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    return outcome(reference, doc)


def member_text(pairs) -> str:
    """A document text with these (key, value) members, in this order."""
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


@st.composite
def repeated_key_texts(draw) -> str:
    """A valid text in which one top-level key is repeated.

    The members are those of a document with up to two faults.  The key
    is one of them or an unknown one, and its first value, placed
    anywhere before the last, is any JSON value: often that member's
    value in another document, faults included, so a section that is
    read and then replaced, or left unread.
    """
    doc = draw(st.integers(0, 2).flatmap(lambda n: mutated_documents(faults=n)))
    pairs = list(doc.items())
    key = draw(st.sampled_from([*doc, "a"]))
    if key not in doc:
        pairs.insert(draw(st.integers(0, len(pairs))), (key, draw(json_values)))
    last = next(n for n, (k, _) in enumerate(pairs) if k == key)
    other = draw(st.integers(0, 2).flatmap(lambda n: mutated_documents(faults=n)))
    first = draw(st.one_of(json_values, st.just(other.get(key, []))))
    pairs.insert(draw(st.integers(0, last)), (key, first))
    return member_text(pairs)


# (block, lookahead) sizes of the reader's window, down to a character at a time
WINDOWS = [(1, 0), (3, 1), (7, 4), (101, 37), (977, 101)]
windows = st.sampled_from([None, *WINDOWS])


@contextlib.contextmanager
def window(size):
    """The reader's window shrunk to ``size``, or as it is for None."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(complex_model, "_BLOCK", size[0])
            mp.setattr(complex_model, "_LOOKAHEAD", size[1])
        yield


class TestTextReader:
    @given(
        st.integers(0, 3).flatmap(lambda n: mutated_documents(faults=n)),
        st.sampled_from([2, None]),
        windows,
    )
    @settings(max_examples=400, deadline=None)
    def test_text_reads_as_the_parsed_document(self, doc, indent, size):
        text = json.dumps(doc, indent=indent)
        with window(size):
            assert text_outcome(text) == parsed_outcome(text)

    @given(documents(), st.sampled_from([2, None]), windows)
    @settings(max_examples=100, deadline=None)
    def test_valid_documents_are_read_record_by_record(self, doc, indent, size):
        # the reader takes every valid document itself, with no json.loads
        text = json.dumps(doc, indent=indent)
        with window(size):
            assert read_columns(text) is not None
            assert text_outcome(text) == reference(doc)

    @given(repeated_key_texts(), windows)
    @settings(max_examples=300, deadline=None)
    def test_a_repeated_key_keeps_its_last_value(self, text, size):
        # as json.loads does; never an AssertionError from the diagnosis
        with window(size):
            assert text_outcome(text) == parsed_outcome(text)


BUILT = built_text(4, 2, 0, 2)


def _edited(edit) -> str:
    """The text of the small build after ``edit`` of its parsed document."""
    doc = json.loads(BUILT)
    edit(doc)
    return json.dumps(doc, indent=2)


def _text(*members) -> str:
    """A document text with ``members`` in this order: keys of the small
    build, valued as in it, or (key, value) pairs."""
    doc = json.loads(BUILT)
    return member_text([(m, doc[m]) if isinstance(m, str) else m for m in members])


THREE_SIDES = json.loads(_edited(lambda doc: doc["squares"][0]["boundary"].pop()))["squares"]

TAKEN = {
    "params after the sections": _text("vertices", "edges", "squares", "params"),
    "sections in reverse": _text("squares", "edges", "vertices", "params"),
    "unknown keys around": _text(("a", [1, {"b": None}]), "squares", "edges", "vertices", ("z", "x")),
    # a repeated key keeps its last value, as in json.loads
    "repeated top-level key": _text("params", ("vertices", []), "edges", "squares", "vertices"),
    "repeated unknown key": _text(("a", 1), ("a", 2), "params", "vertices", "edges", "squares"),
    "a first section left unread": _text(("squares", THREE_SIDES), "params", "vertices", "edges", "squares"),
    "a first section replaced": _text(("edges", []), "params", "vertices", "edges", "squares"),
}


@pytest.mark.parametrize("name", sorted(TAKEN))
def test_reader_takes_any_member_order(name):
    text = TAKEN[name]
    assert read_columns(text) is not None
    assert text_outcome(text) == parsed_outcome(text)


def _late_faults(unknown_vertex: bool, open_walk: bool, unknown_edge: bool) -> dict:
    """A hand-made document with some of three faults that the loader resolves late: an
    edge on an unknown vertex, a first square whose walk does not close (through that
    edge) and a second square on an unknown edge."""
    edges = [("a", "A", "B"), ("b", "B", "C"), ("c", "D", "C"), ("d", "A", "D")]
    edges.append(("x", "Z" if unknown_vertex else "E", "D"))

    def square(sid, last):
        sides = [("a", "+"), ("b", "+"), ("c", "-"), (last, "-")]
        return {"id": sid, "boundary": [{"edge": e, "dir": d} for e, d in sides]}

    return {
        "vertices": [{"id": v, "height": None} for v in "ABCDE"],
        "edges": [{"id": e, "tail": t, "head": h, "type": None} for e, t, h in edges],
        "squares": [square("S", "x" if open_walk else "d"), square("T", "q" if unknown_edge else "d")],
    }


# the message for each set of faults, whatever the order of the sections
LATE_FAULTS = {
    (True, True, True): "edges['x']: unknown vertex 'Z'",
    (False, True, True): (
        "squares['S'].boundary: walk does not close (side 3 ends at 'E', side 0 starts at 'A')"
    ),
    (False, False, True): "squares['T'].boundary[3].edge: unknown edge 'q'",
    (True, False, False): "edges['x']: unknown vertex 'Z'",
}


@pytest.mark.parametrize("order", list(itertools.permutations(SECTIONS)))
@pytest.mark.parametrize("faults", sorted(LATE_FAULTS))
def test_late_faults_keep_their_precedence_in_any_member_order(faults, order):
    doc = _late_faults(*faults)
    text = member_text([("params", None), *((key, doc[key]) for key in order)])
    assert text_outcome(text) == LATE_FAULTS[faults]
    assert text_outcome(text) == parsed_outcome(text)


FALLBACK = {
    "top level a list": "[]",
    "top level a string": '"vertices"',
    "empty object": "{}",
    "missing section": json.dumps({"params": None, "vertices": [], "edges": []}),
    "section not a list": json.dumps({"params": None, "vertices": [], "edges": {}, "squares": []}),
    "params not an object": _edited(lambda doc: doc.update(params=[4, 2])),
    "params out of range": _edited(lambda doc: doc.update(params={"m": 2, "k": 2})),
    "record not an object": _edited(lambda doc: doc["vertices"].append("v")),
    "record with a bool height": _edited(lambda doc: doc["vertices"][1].update(height=True)),
    "three sides": _edited(lambda doc: doc["squares"][0]["boundary"].pop()),
    "sides as a string": _edited(lambda doc: doc["squares"][1].update(boundary="abcd")),
    "side not an object": _edited(lambda doc: doc["squares"][1]["boundary"].__setitem__(2, [])),
    "unhashable dir": _edited(lambda doc: doc["squares"][1]["boundary"][2].update(dir=["+"])),
    "unknown edge": BUILT.replace('"edge": "e/1/1/0,0,0,0"', '"edge": "e/9/9"', 1),
    "trailing data": BUILT + "x",
    "a second document": BUILT + BUILT,
    "BOM": "\ufeff" + BUILT,
    "truncated": BUILT[: len(BUILT) // 2],
    "trailing comma in a section": BUILT.replace("}\n  ],", "},\n  ],", 1),
    "trailing comma at the top": BUILT.rstrip()[:-1] + ",}",
    "missing colon": BUILT.replace('"params":', '"params"', 1),
    "NaN height": _edited(lambda doc: doc["vertices"][0].update(height=float("nan"))),
    "empty text": "",
    "last section unread": _text("params", "vertices", "edges", "squares", ("squares", THREE_SIDES)),
}


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_fallback_gives_the_parsed_documents_message(name):
    text = FALLBACK[name]
    assert text != BUILT
    assert text_outcome(text) == parsed_outcome(text)
    assert read_columns(text) is None


@pytest.mark.parametrize("name", sorted(TAKEN))
def test_small_blocks_take_any_member_order(name):
    text = TAKEN[name]
    want = parsed_outcome(text)
    for size in WINDOWS:
        with window(size):
            assert read_columns(text) is not None, size
            assert text_outcome(text) == want, size


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_small_blocks_give_the_parsed_documents_message(name):
    text = FALLBACK[name]
    want = parsed_outcome(text)
    for size in WINDOWS:
        with window(size):
            assert text_outcome(text) == want, size
            assert read_columns(text) is None, size


# ---------------------------------------------------------------------------
# block boundaries

BIG = json.loads(built_text(4, 2, -4, 4))  # 236,453 characters written: four default blocks
FIRST_ID = json.loads(BUILT)["vertices"][0]["id"]


def _renamed(new_id) -> str:
    """The small build with its first vertex renamed wherever it stands."""
    return BUILT.replace(json.dumps(FIRST_ID), json.dumps(new_id))


def _padded(doc, note) -> str:
    """The small build with ``note`` as an unknown field of its first vertex."""
    doc["vertices"][0]["note"] = note
    return json.dumps(doc, indent=2)


BIG_UNREAD = BIG["squares"][:-1] + [THREE_SIDES[0]]  # unread only at its last record

BOUNDARY = {
    "whitespace across block ends": re.sub(r",\n *", "," + " \t\r\n" * 40, BUILT),
    "whitespace past the default block": BUILT.replace("},\n    {", "}," + " " * 70_000 + "{", 1),
    "record past the default block": _padded(json.loads(BUILT), "x" * 100_000),
    "record past the lookahead": _padded(json.loads(BUILT), ["ab"] * 2_000),
    "a first section unread over many blocks": _text(
        ("squares", BIG_UNREAD), "params", "vertices", "edges", "squares"
    ),
    "a repeated key with a large first value": _text(
        ("vertices", BIG["vertices"]), ("squares", BIG["squares"]),
        "params", "vertices", "edges", "squares",
    ),
    "an unknown key with a large value": _text(("a", ["x" * 999] * 200), *json.loads(BUILT)),
    # a number cut after "1" of "1.5" or "1e-300" still decodes, as the wrong number
    "numbers at the top level": _text(
        ("a", -12.5), ("b", 1e-300), ("c", [2.5e300, 0.0]), *json.loads(BUILT), ("d", 10)
    ),
    "one line": json.dumps(json.loads(BUILT)),
    "one line, no spaces": json.dumps(json.loads(BUILT), separators=(",", ":")),
    "tab-indented": json.dumps(json.loads(BUILT), indent="\t"),
    "hand-indented": BUILT.replace("\n", "\n \t   "),
    "an id with a record separator": _renamed('a},\n    {"id": "b'),
    "an id with an escaped newline": _renamed("a\nb},"),
    "CRLF": BUILT.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_texts_read_alike_across_block_boundaries(name):
    text = BOUNDARY[name]
    want = parsed_outcome(text)
    assert not isinstance(want, str), want  # every text is a valid document
    for size in [None, *WINDOWS]:
        with window(size):
            assert read_columns(text) is not None, size
            assert text_outcome(text) == want, size


def test_crlf_file_reads_as_its_lf_text(tmp_path):
    # a file opened as text turns each \r\n into \n, also where a block splits the pair
    path = tmp_path / "crlf.json"
    path.write_bytes(BUILT.replace("\n", "\r\n").encode())
    want = loaded(BUILT)
    for size in [None, *WINDOWS]:
        with window(size), open(path, encoding="utf-8") as fh:
            assert complex_from_json(fh) == want, size


# ---------------------------------------------------------------------------
# memory


def _peak(fn) -> int:
    """Bytes of the highest traced allocation above the start while ``fn`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@functools.lru_cache(maxsize=None)
def _guard_build():
    return build_quotient_complex(GroupParams(4, 3), -8, 8)


@pytest.fixture
def guard_file(tmp_path):
    """The (4,3) +-8 document in a file."""
    path = tmp_path / "guard.json"
    path.write_text(written(_guard_build()), encoding="utf-8")
    return path


def _opened(load, path):
    with open(path, encoding="utf-8") as fh:
        return load(fh)


class HeldText(io.TextIOBase):
    """A text held whole and read as a stream with no copy, as a file read whole is."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def read(self, size=-1):
        chunk = self.text[self.pos : None if size < 0 else self.pos + size]
        self.pos += len(chunk)
        return chunk


def test_streamed_load_peaks_below_half_of_a_whole_parse(guard_file):
    # the reading alone on both sides; with the view made, the load still peaks below the parse
    text = guard_file.read_text(encoding="utf-8")
    streamed = _peak(lambda: _opened(complex_model._read_columns, guard_file))
    whole = _peak(lambda: json.loads(text))
    assert streamed < whole / 2, (streamed, whole)
    assert _peak(lambda: _opened(complex_from_json, guard_file)) < whole


def test_file_load_peaks_below_a_whole_read_by_half_the_text(guard_file):
    chars = len(guard_file.read_text(encoding="utf-8"))
    streamed = _peak(lambda: _opened(complex_from_json, guard_file))
    whole = _peak(lambda: complex_from_json(HeldText(guard_file.read_text(encoding="utf-8"))))
    assert streamed < whole - chars / 2, (streamed, whole, chars)


@pytest.mark.parametrize("m, k, lo, hi", [*BUILDS, (4, 3, -8, 8)])
def test_reading_a_written_build_gives_its_cells(m, k, lo, hi):
    # column for column: the same ids, heights and types, and every incidence the same position
    cells = build_quotient_complex(GroupParams(m, k), lo, hi)
    got = read_columns(written(cells))
    for field, want in zip(Cells._fields, cells):
        assert getattr(got, field) == want, field
        assert type(getattr(got, field)) is type(want), field


def test_validation_transient_stays_within_its_view():
    # what validate_complex allocates and frees, against the view it returns
    cells = _guard_build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ix = validate_complex(cells)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ix.sides and peak - held < 1.6 * (held - base), (peak - held, held - base)


def test_a_build_is_indexed_without_a_permutation():
    # the view keeps the build's columns and allocates only its end list and turned sides
    cells = _guard_build()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ix = validate_complex(cells)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ix.sides is cells.sides and ix.edge_ids is cells.edge_ids
    made = sys.getsizeof(ix.ends) + sys.getsizeof(ix.next_sides)
    assert peak <= 1.25 * made, (peak, made)


def test_streamed_write_peaks_below_the_document():
    X = _guard_build()
    text = written(X)

    class Sink(io.TextIOBase):
        def __init__(self):
            self.digest, self.chars = hashlib.sha256(), 0

        def write(self, chunk):
            self.digest.update(chunk.encode())
            self.chars += len(chunk)
            return len(chunk)

    sink = Sink()
    peak = _peak(lambda: complex_to_json(X, sink))
    assert sink.chars == len(text)
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()
    assert peak < len(text), (peak, len(text))
