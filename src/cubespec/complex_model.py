"""Square complexes as columns in sorted-id order, their integer view, and the builder.

A square complex is a set of vertices, directed edges and squares whose
boundaries are closed walks of four directed edges, keyed by id.  ``Cells``
lists it as columns, one per field, each kind of cell in sorted-id order,
each incidence the position of a cell: ``build_quotient_complex`` lays a
build out so, ``complex_to_json`` writes it to a text stream, and
``complex_from_json`` reads it back a block at a time, never holding the
whole text, and sorts each kind by id, the one sort of a complex;
``json.loads`` runs only to name the fault of a text this reader does not
take.  ``validate_complex`` checks that the ids ascend and the walks close
and keeps the columns as the ``ComplexIndex`` on which the curvature check
and the kernels of ``hyperplane_engine`` run.

The builder materialises finite height-truncations of the quotient
complex for parameters (m, k): one vertex orbit per height (coefficients
reduced modulo the height's stabiliser), m free edge orbits per height
and m free square orbits per layer, glued according to the
fundamental-domain incidence rules of ``cubespec.incidence``.

Every built edge points upwards (head one height above tail).  Edge and
square coefficients are never reduced: those cells are in free orbit,
and two distinct edges may share both endpoints when consecutive
heights both branch.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import operator
import re
from array import array
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _enc
from typing import NamedTuple, Optional, TextIO

from cubespec.coeff_group import GroupParams, constant, identity
from cubespec.incidence import (
    DEFAULT_SIZE_CAP,
    EdgeRef,
    SquareRef,
    _coset_floor,
    _translation,
    check_size_cap,
    edge_endpoints,
    square_boundary,
)
from cubespec.layout import Rows, pieces


class SpanError(ValueError):
    """Height span too small to hold at least one square layer."""


class ComplexFormatError(ValueError):
    """A complex document violates the schema; message carries the path."""


# ---------------------------------------------------------------------------
# the two forms of a complex


class Cells(NamedTuple):
    """A complex as columns, one per field, each kind of cell in sorted-id order.

    A built complex has ``params``, an int height on every vertex and an
    int type on every edge; a document may have null for any of them.
    Incidences are positions, encoded as in the view: edge end 2*e + b, the head of
    edge position e for b = 0 and its tail for b = 1, is at vertex position ``ends[2*e + b]``,
    and side n of square s is ``sides[4*s + n] = 2 * edge position + (dir == "-")``.
    """

    params: Optional[GroupParams]
    vertex_ids: list[str]
    heights: list[Optional[int]]
    edge_ids: list[str]
    ends: array
    types: list[Optional[int]]
    square_ids: list[str]
    sides: array

    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertex_ids),
            "edges": len(self.edge_ids),
            "squares": len(self.square_ids),
        }


class ComplexIndex(NamedTuple):
    """Integer view of a complex, made by ``validate_complex``.

    Vertices, edges and squares are numbered in sorted-id order, as in the
    ``Cells`` whose columns the view keeps, so a lexicographic tie-break on
    ids is a comparison of indices.  An edge end, a node of a vertex link,
    is ``2*e`` for the head of edge e and ``2*e + 1`` for its tail, which
    keeps the order (edge id, "head" < "tail"), and ``ends`` is the one
    column of the edges' ends: the head of e is vertex ``ends[2*e]`` and its
    tail ``ends[2*e + 1]``; kernels walk it as (head, tail) pairs.  Side n of
    square s is ``sides[4*s + n] = 2*e + (dir == "-")``: read as a node, that
    is the end of e where the side stops.  Ids are looked up only where a
    result names a cell.
    """

    vertex_ids: list[str]
    edge_ids: list[str]
    square_ids: list[str]
    sides: array  # four per square, 2*e + direction bit, held unboxed
    ends: list[int]  # edge end -> its vertex: the head of e at 2*e, the tail at 2*e + 1
    next_sides: array  # ``sides`` turned within each square: 4*s + n holds side (n + 1) % 4
    height: list[Optional[int]]  # vertex index -> height
    type: list[Optional[int]]  # edge index -> type
    params: Optional[GroupParams]
    links: list  # ``link_masks`` of the view, made on first use

    def node(self, x: int) -> list[str]:
        """An edge end named as in documents: [edge id, "head" | "tail"]."""
        return [self.edge_ids[x >> 1], "tail" if x & 1 else "head"]


_DIR_BIT = {"+": 0, "-": 1}


def _positions(order, size: int, width: int = 1) -> list:
    """``pos[width * order[p] + b] = width * p + b`` for b < width, and None for the other
    numbers below ``width * size``: with width 2, edge ends move as ``order`` moves edges."""
    pos: list = [None] * (width * size)
    for b in range(width):
        for p, x in enumerate(order):
            pos[width * x + b] = width * p + b
    return pos


def validate_complex(cells: Cells) -> ComplexIndex:
    """Check that each kind's ids strictly ascend, else raise ``ValueError``, and that every
    square boundary closes, by ``_closed_walks``; return the view that keeps the columns."""
    for kind, ids in zip(_SCHEMA, (cells.vertex_ids, cells.edge_ids, cells.square_ids)):
        if not all(map(operator.lt, ids, itertools.islice(ids, 1, None))):
            raise ValueError(f"{kind}: ids must strictly ascend")
    # the ends share one int per vertex, where ``cells.ends.tolist()`` would box one per end
    ends = list(map(list(range(len(cells.vertex_ids))).__getitem__, cells.ends))
    return ComplexIndex(
        cells.vertex_ids, cells.edge_ids, cells.square_ids, cells.sides, ends,
        _closed_walks(cells, ends), cells.heights, cells.types, cells.params, [],
    )


def _closed_walks(cells: Cells, ends: list[int]) -> array:
    """``cells.sides`` turned in each square, 4*s + n holding side (n + 1) % 4, once side n
    stops at ``ends[sides[4*s + n]]`` (``cells.ends`` as a list), where side n + 1 starts; a
    walk that does not close raises the first fault of ``cells``, by ``_check_incidences``."""
    after = array("l", cells.sides)
    for n in range(4):
        after[n::4] = cells.sides[(n + 1) % 4 :: 4]
    starts = map(ends.__getitem__, map(operator.xor, after, itertools.repeat(1)))
    if all(map(operator.eq, map(ends.__getitem__, cells.sides), starts)):
        return after
    named, edge_of = cells.vertex_ids.__getitem__, cells.edge_ids.__getitem__
    doc_sides = [(edge_of(x >> 1), "+-"[x & 1]) for x in cells.sides]
    edges = zip(cells.edge_ids, map(named, cells.ends[1::2]), map(named, cells.ends[0::2]))
    _check_incidences(cells.vertex_ids, edges, zip(cells.square_ids, zip(*[iter(doc_sides)] * 4)))


def _check_incidences(vertex_ids, edges, squares) -> None:
    """Raise the first fault of ``edges``, as (id, tail, head), and then of ``squares``, as
    (id, four (edge, dir) sides), all by id in the order given: an edge end that is not a
    vertex, a side on no edge, or else a walk that does not close, with its path."""
    known, ends = set(vertex_ids), {}  # edge id -> (tail, head)
    for eid, tail, head in edges:
        for v in (tail, head):
            _require(v in known, f"edges[{eid!r}]", f"unknown vertex {v!r}")
        ends[eid] = (tail, head)
    for sid, boundary in squares:
        path = f"squares[{sid!r}].boundary"
        for n, (eid, _) in enumerate(boundary):
            _require(eid in ends, f"{path}[{n}].edge", f"unknown edge {eid!r}")
        walk = [ends[eid] if d == "+" else ends[eid][::-1] for eid, d in boundary]  # (start, stop)
        for n in range(4):
            stop, start = walk[n][1], walk[(n + 1) % 4][0]
            where = f"side {n} ends at {stop!r}, side {(n + 1) % 4} starts at"
            _require(stop == start, path, f"walk does not close ({where} {start!r})")
    raise AssertionError("the ordered checks found no fault")


# ---------------------------------------------------------------------------
# builder


def build_quotient_complex(
    params: GroupParams,
    h_min: int,
    h_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Cells:
    """Materialise the height-truncation of the quotient complex.

    Vertices appear at every height in [h_min, h_max], edges at every height
    with a layer below, and squares on every layer with room both above and
    below.  Boundary layers simply lack the squares that would extend past the
    truncation; downstream checks compensate with a core margin.  Cell ids are
    deterministic, and each kind of cell is listed in sorted-id order, where
    ``v/-1/..`` comes before ``v/-10/..`` and an exponent 10 before an exponent
    2; ``validate_complex`` checks the result.

    The incidence rules are equivariant: the cell with coefficient g has the
    faces of the identity cell translated by g.  So the faces of the identity
    cells are read off ``edge_endpoints`` and ``square_boundary`` once per
    (height, type), each translation becomes an index table, from the rank of g
    in exponent-text order to the rank of g * t, and the per-cell loops only
    read the positions of faces off those tables.  A vertex coefficient is
    reduced to the least index of its coset of the height-i stabiliser <d(i)>,
    as ``canonical_vertex`` reduces it: one ``_coset_floor`` table per height
    residue mod k, which fixes the stabiliser.
    """
    if h_max < h_min + 2:
        raise SpanError(
            f"need h_max >= h_min + 2 for at least one square layer, "
            f"got [{h_min}, {h_max}]"
        )
    check_size_cap(params, size_cap)
    k, order = params.k, params.order
    texts = [",".join(map(str, exps)) for exps in itertools.product(range(k), repeat=params.m)]
    by_id = sorted(range(order), key=texts.__getitem__)  # coefficient indices in id order
    rank, labels = _positions(by_id, order), [texts[c] for c in by_id]
    one = identity(params)
    table = functools.cache(  # t -> the rank of g * t, by the rank of g
        lambda t: [rank[x] for x in map(_translation(params, t).__getitem__, by_id)]
    )
    floor = functools.cache(lambda r: _coset_floor(params, constant(params, r)))  # r = height % k
    in_id_order = functools.partial(sorted, key="{}/".format)  # heights and types, as ids sort
    cells = Cells(params, [], [], [], array("l"), [], [], array("l"))
    vertex_at: dict[int, list[int]] = {}  # height -> coefficient rank -> vertex position
    for i in in_id_order(range(h_min, h_max + 1)):
        canon = floor(i % k)
        reps = [c for c in by_id if canon[c] == c]
        at = dict(zip(reps, itertools.count(len(cells.vertex_ids))))
        cells.vertex_ids.extend([f"v/{i}/{texts[c]}" for c in reps])
        cells.heights.extend([i] * len(reps))
        vertex_at[i] = [at[canon[c]] for c in by_id]
    edge_at: dict[tuple[int, int], int] = {}  # (height, type) -> position of its first edge
    pair = array("l", [0]) * (2 * order)  # the ends of one (height, type), edge by edge
    for i in in_id_order(range(h_min + 1, h_max + 1)):
        for j in in_id_order(range(1, params.m + 1)):
            edge_at[i, j] = len(cells.edge_ids)
            for b, end in enumerate(edge_endpoints(EdgeRef(i, j, one))[::-1]):  # head, then tail
                pair[b::2] = array("l", map(vertex_at[end.height].__getitem__, table(end.coeff)))
            cells.edge_ids.extend([f"e/{i}/{j}/{s}" for s in labels])
            cells.ends.extend(pair)
            cells.types.extend([j] * order)
    block = array("l", [0]) * (4 * order)  # the sides of one (height, type), square by square
    for i in in_id_order(range(h_min + 1, h_max)):
        for j in in_id_order(range(1, params.m + 1)):
            for n, (er, d) in enumerate(square_boundary(SquareRef(i, j, one))):
                end = 2 * edge_at[er.height, er.type_j] + _DIR_BIT[d]
                block[n::4] = array("l", [end + 2 * x for x in table(er.coeff)])
            cells.square_ids.extend([f"s/{i}/{j}/{s}" for s in labels])
            cells.sides.extend(block)
    return cells


# ---------------------------------------------------------------------------
# links and curvature


def link_corners(ix: ComplexIndex) -> list[list[int]]:
    """Square corners of every vertex link, by vertex index.

    The link of v has the edge ends at v as nodes and one adjacency per
    square corner at v.  Corner c = 4*s + n follows side n of square s:
    it joins node ``sides[c]``, the end where side n stops, to node
    ``next_sides[c] ^ 1``, the end where the next side starts, and
    it lies at vertex ``ends[sides[c]]``.  Each
    vertex lists its corners in ascending c: sorted square order, then
    corner position.
    """
    ends = ix.ends
    corners: list[list[int]] = [[] for _ in ix.vertex_ids]
    for c, side in enumerate(ix.sides):
        corners[ends[side]].append(c)
    return corners


def link_masks(ix: ComplexIndex) -> list[list[int]]:
    """``[bit, nb]``: each edge end's rank among the ends at its vertex, as a bit, and the
    mask of its neighbours in its link, so ends x, y meet at a square corner when
    ``nb[x] & bit[y]``.  Made once per view, in ``ix.links``; kernels only read it."""
    if not ix.links:
        ends = ix.ends
        rank = [0] * len(ix.vertex_ids)  # vertex -> ends given a bit so far
        bit = [0] * len(ends)
        for x, v in enumerate(ends):
            bit[x] = 1 << rank[v]
            rank[v] += 1
        nb = [0] * len(ends)  # node -> its neighbours in its link
        for a, after in zip(ix.sides, ix.next_sides):
            nb[a] |= bit[after ^ 1]
            nb[after ^ 1] |= bit[a]
        ix.links.extend((bit, nb))
    return ix.links


class NpcReport(NamedTuple):
    passed: bool
    failures: list[dict]

    def to_json(self) -> dict:
        return {"passed": self.passed, "failures": self.failures}


def check_npc(ix: ComplexIndex) -> NpcReport:
    """Nonpositive curvature: every vertex link simple with girth >= 4.

    Failures are reported, never raised: self-adjacencies, repeated
    adjacencies between the same two ends, and link triangles.  Vertices
    come in sorted order; within one, the first two kinds in corner
    order, then the triangles in sorted node order.

    The links are decided on the bitmasks of ``link_masks``.  A link is
    simple exactly when its masks hold two bits per corner: a
    self-adjacency adds one, a repeated adjacency none.  A simple link
    has a triangle exactly when the two ends of some corner share a
    neighbour.  The masks are summed and met over the whole complex at
    once; only when that fails is each link tested on its own, and a
    link that fails walked corner by corner, to list its failures.
    """
    sides, after = ix.sides, ix.next_sides
    nb = link_masks(ix)[1]
    at = nb.__getitem__
    if sum(map(int.bit_count, nb)) == 2 * len(sides) and not any(
        map(operator.and_, map(at, sides), map(at, map(operator.xor, after, itertools.repeat(1))))
    ):
        return NpcReport(True, [])
    failures: list[dict] = []
    for v, corners in enumerate(link_corners(ix)):
        near, far = [sides[c] for c in corners], [after[c] ^ 1 for c in corners]
        if sum(nb[x].bit_count() for x in {*near, *far}) != 2 * len(corners) or any(
            map(operator.and_, map(at, near), map(at, far))
        ):
            failures.extend(_link_failures(ix, v, corners, near, far))
    return NpcReport(not failures, failures)


def _link_failures(
    ix: ComplexIndex, v: int, corners: list[int], near: list[int], far: list[int]
) -> list[dict]:
    """The failures of the link of vertex v, whose corner c joins nodes ``near[i]`` and
    ``far[i]`` for c = ``corners[i]``: adjacencies corner by corner, triangles on masks."""
    bit, masks = link_masks(ix)
    failures: list[dict] = []
    n_nodes = 2 * len(ix.edge_ids)
    seen: dict[int, int] = {}  # packed node pair -> first square
    for c, na, nb in zip(corners, near, far):
        if na == nb:
            failures.append(
                {
                    "kind": "self_adjacency",
                    "vertex": ix.vertex_ids[v],
                    "node": ix.node(na),
                    "square": ix.square_ids[c >> 2],
                }
            )
            continue
        key = na * n_nodes + nb if na < nb else nb * n_nodes + na
        if key in seen:
            squares = sorted({seen[key], c >> 2})
            failures.append(
                {
                    "kind": "double_adjacency",
                    "vertex": ix.vertex_ids[v],
                    "nodes": [ix.node(na), ix.node(nb)],
                    "squares": [ix.square_ids[s] for s in squares],
                }
            )
        else:
            seen[key] = c >> 2
    nodes = sorted({*near, *far})
    for i, na in enumerate(nodes):  # a self-adjacency is in no triangle: the nodes ascend
        for j, nb in enumerate(nodes[i + 1:], i + 1):
            if masks[na] & bit[nb]:
                for nc in nodes[j + 1:]:
                    if masks[na] & masks[nb] & bit[nc]:
                        failures.append(
                            {
                                "kind": "triangle",
                                "vertex": ix.vertex_ids[v],
                                "nodes": [ix.node(na), ix.node(nb), ix.node(nc)],
                            }
                        )
    return failures


# ---------------------------------------------------------------------------
# JSON round trip


# record templates, laid out as ``json.dumps(indent=2)`` lays out a list item
_VERTEX = '    {\n      "id": %s,\n      "height": %d\n    }'
_EDGE = '    {\n      "id": %s,\n      "tail": %s,\n      "head": %s,\n      "type": %d\n    }'
_SQUARE = (  # the id, then the edge and dir of each of the four sides
    '    {\n      "id": %s,\n      "boundary": [\n'
    + ",\n".join(['        {\n          "edge": %s,\n          "dir": %s\n        }'] * 4)
    + "\n      ]\n    }"
)


def _interleave(cols: list, count: int) -> tuple:
    """The fields of ``count`` records, record by record, from one column each."""
    flat: list = [None] * (len(cols) * count)
    for n, col in enumerate(cols):
        flat[n :: len(cols)] = col
    return tuple(flat)


def _fields(cells: Cells, quoted: tuple, section: str, lo: int, hi: int) -> tuple:
    """The template fields of records lo..hi-1 of a section, strings quoted; ``quoted``
    holds each vertex id, and the edge id and the dir of each edge end, already quoted."""
    vertex_ids, edge_of, dir_of = quoted
    if section == "vertices":
        return _interleave([vertex_ids[lo:hi], cells.heights[lo:hi]], hi - lo)
    if section == "edges":
        ends = (map(vertex_ids.__getitem__, cells.ends[2 * lo + b : 2 * hi : 2]) for b in (1, 0))
        return _interleave([edge_of[2 * lo : 2 * hi : 2], *ends, cells.types[lo:hi]], hi - lo)
    cols = [map(_enc, cells.square_ids[lo:hi])]
    for n in range(4):  # the edge and dir of side n, square by square
        side = cells.sides[4 * lo + n : 4 * hi : 4]
        cols += [map(edge_of.__getitem__, side), map(dir_of.__getitem__, side)]
    return _interleave(cols, hi - lo)


def complex_to_json(cells: Cells, out: TextIO, stamp: Optional[dict] = None) -> None:
    """Write the document of a built complex to the text stream ``out``.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the object with
    keys params, vertices, edges and squares, and then ``stamp`` when it
    is given.  Each section is declared as ``Rows`` in column order, its
    records made from a template, so every height and type must be an
    int, as in a build.  The text is written a batch of records at a
    time, so the whole document is never held.
    """
    params = cells.params
    doc: dict = {"params": None if params is None else {"m": params.m, "k": params.k}}
    edge_ids = list(map(_enc, cells.edge_ids))  # each id quoted once, then read by position
    quoted = (list(map(_enc, cells.vertex_ids)), edge_ids * 2, ['"+"', '"-"'] * len(edge_ids))
    quoted[1][0::2] = quoted[1][1::2] = edge_ids  # by edge end, as the sides name them
    for key, template, ids in (
        ("vertices", _VERTEX, cells.vertex_ids),
        ("edges", _EDGE, cells.edge_ids),
        ("squares", _SQUARE, cells.square_ids),
    ):
        doc[key] = Rows(template, len(ids), functools.partial(_fields, cells, quoted, key))
    if stamp is not None:
        doc["stamp"] = stamp
    out.writelines(pieces(doc))


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ComplexFormatError(f"{path}: {message}")


# section -> record kind, its string fields (the id first), its optional integer field
_SCHEMA = {
    "vertices": ("vertex", ("id",), "height"),
    "edges": ("edge", ("id", "tail", "head"), "type"),
    "squares": ("square", ("id",), None),
}


def _check_records(recs: list, section: str) -> None:
    """Raise the first fault of a section's records, in record order, with its path."""
    kind, strings, optional = _SCHEMA[section]
    seen = set()
    for n, rec in enumerate(recs):
        path = f"{section}[{n}]"
        _require(isinstance(rec, dict), path, "expected an object")
        for key in strings:
            _require(isinstance(rec.get(key), str), path, f"missing string {key!r}")
        _require(rec["id"] not in seen, path, f"duplicate {kind} id {rec['id']!r}")
        seen.add(rec["id"])
        value = rec.get(optional or "boundary")
        if optional:
            integer = value is None or isinstance(value, int) and not isinstance(value, bool)
            _require(integer, f"{path}.{optional}", "expected an integer or null")
            continue
        _require(isinstance(value, list), f"{path}.boundary", "expected a list")
        _require(len(value) == 4, f"{path}.boundary", f"expected 4 sides, got {len(value)}")
        for sn, side in enumerate(value):
            spath = f"{path}.boundary[{sn}]"
            _require(isinstance(side, dict), spath, "expected an object")
            _require(isinstance(side.get("edge"), str), spath, "missing string 'edge'")
            _require(side.get("dir") in ("+", "-"), f"{spath}.dir", "expected '+' or '-'")


def _params(raw) -> Optional[GroupParams]:
    """The ``params`` of a document: null, or an object with a valid m and k."""
    if raw is None:
        return None
    _require(isinstance(raw, dict), "params", "expected an object or null")
    for key in ("m", "k"):
        _require(key in raw, "params", f"missing key {key!r}")
    try:
        return GroupParams(raw["m"], raw["k"])
    except (TypeError, ValueError) as exc:
        raise ComplexFormatError(f"params: {exc}") from exc


_DECODER = json.JSONDecoder()
_WS = json.decoder.WHITESPACE.match
_NEXT = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|(\]))").match
_BLOCK = 1 << 16  # characters read from the stream at a time
_LOOKAHEAD = 1 << 14  # unread characters kept ahead of each record


def _space(text: str, pos: int) -> tuple:
    return None, _WS(text, pos).end()


def _separator(text: str, pos: int) -> tuple:
    """Whether the comma or closing bracket at ``pos`` closes the array, and the end."""
    after = _NEXT(text, pos)
    if after is None:
        raise ValueError("expected ',' or ']'")
    return after.lastindex, after.end()


class _Window:
    """The part of a text stream that is read and not yet taken.

    ``text`` holds what has been read, and ``pos`` is where the taken
    part ends; ``eof`` is true once the stream has no more.
    """

    def __init__(self, stream: TextIO):
        self.stream, self.text, self.pos, self.eof = stream, "", 0, False

    def read(self) -> None:
        """Drop the taken text and read a block, or as much as is unread if that is more."""
        chunk = self.stream.read(max(_BLOCK, len(self.text) - self.pos))
        self.text, self.pos, self.eof = self.text[self.pos :] + chunk, 0, not chunk

    def limit(self) -> int:
        """The position past which less than the lookahead is unread."""
        return len(self.text) if self.eof else len(self.text) - _LOOKAHEAD

    def take(self, scan):
        """The value that ``scan(text, pos) -> (value, end)`` finds at ``pos``; step past it.

        A value that fails to decode, or that ends less than three
        characters before the read text ends, may go on in the stream
        (a number cut at "1" of "1.5" or "1e+5"): it is scanned again on
        twice the text, until the stream ends and the last failure raises.
        """
        while True:
            try:
                value, end = scan(self.text, self.pos)
                if end + 2 < len(self.text) or self.eof:
                    self.pos = end
                    return value
            except (StopIteration, ValueError):
                if self.eof:
                    raise
            self.read()

    def skip(self, char: str) -> bool:
        """Step over whitespace, then over ``char`` if it comes next."""
        self.take(_space)
        found = self.text[self.pos : self.pos + 1] == char
        self.pos += found
        return found


def _vertex_row(rec: dict, name, cols: list) -> None:
    cols[0].append(name(rec["id"]))
    cols[1].append(rec.get("height"))


def _edge_row(rec: dict, name, cols: list) -> None:
    cols[0].append(name(rec["id"]))
    cols[1].extend((name(rec["head"]), name(rec["tail"])))
    cols[2].append(rec.get("type"))


def _square_row(rec: dict, name, cols: list, bit=_DIR_BIT) -> None:
    a, b, c, d = rec["boundary"]  # raises unless four sides
    cols[0].append(name(rec["id"]))
    cols[1].extend((2 * name(a["edge"]) + bit[a["dir"]], 2 * name(b["edge"]) + bit[b["dir"]],
                    2 * name(c["edge"]) + bit[c["dir"]], 2 * name(d["edge"]) + bit[d["dir"]]))


def _read_section(win: _Window, section: str, name) -> Optional[list]:
    """The columns of the records in the array at the window, or None when it is unread.

    Records are decoded one at a time, and only their fields are kept:
    each id and reference as the ordinal that ``name`` gives it, an
    edge's head and then its tail in one column, a side as 2 * the
    ordinal of its edge + its direction bit, and heights and types as
    they are.  The window is left past the value, read or not.  None
    when the value is not an array or a record lacks a field or has one
    that cannot be kept so; a decode error raises.
    """
    row, cols = {
        "vertices": (_vertex_row, [array("l"), []]),
        "edges": (_edge_row, [array("l"), array("l"), []]),
        "squares": (_square_row, [array("l"), array("l")]),
    }[section]
    scan = _DECODER.scan_once
    if not win.skip("["):
        win.take(scan)
        return None
    if not win.skip("]"):
        text, pos, limit, closed = win.text, win.pos, win.limit(), None
        while not closed:
            if pos > limit:
                win.pos = pos
                win.read()
                text, pos, limit = win.text, 0, win.limit()
            after = None
            try:
                rec, end = scan(text, pos)
                after = _NEXT(text, end)  # a comma or the closing bracket
            except (StopIteration, ValueError):
                pass
            if after is None:  # the record or what follows it may go on past the read text
                win.pos = pos
                win.take(_space)
                rec = win.take(scan)
                closed = win.take(_separator)
                text, pos, limit = win.text, win.pos, win.limit()
            else:
                closed, pos = after.lastindex, after.end()
            if cols is not None:
                try:
                    row(rec, name, cols)
                except (KeyError, TypeError, ValueError):
                    cols = None  # unread: the rest of the array is stepped over
        win.pos = pos
    return cols


def _resolve(params, names: list[str], vertices: list, edges: list, squares: list):
    """The ``Cells`` of the sections' columns, ``names`` giving the string of each ordinal,
    or None when an id is not a string, a height or type is neither an int nor null, or a
    reference names no cell of its kind (a repeated id fails ``validate_complex``'s ascent).
    Here, and only here, each kind is sorted by id, and a reference maps from its ordinal to
    its cell's position."""
    (v_ids, heights), (e_ids, ends, types), (s_ids, sides) = vertices, edges, squares
    ids = [list(map(names.__getitem__, col)) for col in (v_ids, e_ids, s_ids)]
    typed = {str}.issuperset(map(type, itertools.chain(*ids)))
    typed = typed and {int, type(None)}.issuperset(map(type, itertools.chain(heights, types)))
    if not typed:
        return None
    v_order, e_order, s_order = orders = [sorted(range(len(c)), key=c.__getitem__) for c in ids]
    ids = [list(map(col.__getitem__, order)) for col, order in zip(ids, orders)]
    at = _positions([v_ids[p] for p in v_order], len(names)).__getitem__
    node = _positions([e_ids[p] for p in e_order], len(names), 2).__getitem__
    sorted_ends, sorted_sides = array("l", [0]) * len(ends), array("l", [0]) * len(sides)
    try:  # a reference that names no cell of its kind is at None
        for b in range(2):  # the heads, then the tails
            sorted_ends[b::2] = array("l", map(at, map(ends[b::2].__getitem__, e_order)))
        for n in range(4):
            sorted_sides[n::4] = array("l", map(node, map(sides[n::4].__getitem__, s_order)))
    except TypeError:
        return None
    heights, types = [heights[p] for p in v_order], [types[p] for p in e_order]
    return Cells(params, ids[0], heights, ids[1], sorted_ends, types, ids[2], sorted_sides)


def _read_columns(stream: TextIO) -> Optional[Cells]:
    """The columns of the document in a text stream, or None when the text has a fault.

    The stream is read a block at a time, the top level key by key and
    each section record by record, so neither the whole text nor a
    record outlives the reading of its fields.  Names are ordinals in one
    dict until all sections are read, dropped before ``_resolve`` sorts.
    A repeated key keeps its last value, as in ``json.loads``.  A section
    value that cannot be made into columns is stepped over as unread, so
    the reader takes every valid document.  None when a section is missing
    or its last value is unread or faulty for ``_resolve``, for a top level
    that is not an object, invalid ``params``, trailing data, a BOM, or any
    decode error.
    """
    win, found, names = _Window(stream), {}, collections.defaultdict(itertools.count().__next__)
    try:
        if not win.skip("{"):
            return None
        while True:
            if not win.skip('"'):
                return None
            key = win.take(scanstring)
            if not win.skip(":"):
                return None
            win.take(_space)
            if key in _SCHEMA:
                found[key] = _read_section(win, key, names.__getitem__)
            else:
                found[key] = win.take(_DECODER.scan_once)
            if not win.skip(","):
                break
        if not win.skip("}"):
            return None
        win.take(_space)
        if win.pos < len(win.text):  # trailing data
            return None
        if None in map(found.get, _SCHEMA):  # a section missing or unread
            return None
        params = _params(found.get("params"))
    except (StopIteration, ValueError, RecursionError):
        return None
    names = list(names)
    return _resolve(params, names, *(found[key] for key in _SCHEMA))


def complex_from_json(stream: TextIO) -> ComplexIndex:
    """Validate the complex document in a text stream straight into its integer view.

    The stream is read a block at a time into the columns of ``Cells``, sorted
    by id, so the whole text is never held, and ``validate_complex`` checks that
    no id repeats and the walks close.  Unknown fields are ignored, and a
    repeated top-level key keeps its last value, as in ``json.loads``.

    The reader takes every valid document, so text it does not take, or whose
    ids repeat or walks do not close, has a fault, and what is left is to name
    the first one in document order.  The stream is read again from its start,
    the text is parsed whole by ``json.loads`` and checked in order: the top
    level and ``params``, the records of the vertices, edges and squares, each
    in document order, and then their incidences, by ``_check_incidences``.  The
    first fault raises ``ComplexFormatError`` naming its path; invalid JSON
    raises "invalid JSON: ...", and nesting too deep for the decoder names $.  A
    text stream's decode error is raised by that second read.
    """
    cells = _read_columns(stream)
    if cells is not None:
        with contextlib.suppress(ValueError):  # a repeated id or a walk fault, named below
            return validate_complex(cells)
    stream.seek(0)
    try:
        doc = json.loads(stream.read())
    except json.JSONDecodeError as exc:
        raise ComplexFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ComplexFormatError("$: nesting too deep for the JSON decoder") from None
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    for key in _SCHEMA:
        _require(key in doc, "$", f"missing key {key!r}")
        _require(isinstance(doc[key], list), key, "expected a list")
    _params(doc.get("params"))
    for key in _SCHEMA:
        _check_records(doc[key], key)
    edges = [(e["id"], e["tail"], e["head"]) for e in doc["edges"]]
    squares = [(s["id"], [(x["edge"], x["dir"]) for x in s["boundary"]]) for s in doc["squares"]]
    _check_incidences([v["id"] for v in doc["vertices"]], edges, squares)
