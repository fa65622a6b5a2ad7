"""Square complexes as document-order columns, their integer view, and the builder.

A square complex is a set of vertices, directed edges and squares whose
boundaries are closed walks of four directed edges, keyed by id.  It
comes in two forms.  ``Cells`` lists it in document order, one column
per field: ``build_quotient_complex`` makes it, ``complex_to_json``
writes it to a text stream, and ``complex_from_json`` reads it back out
of the document text, record by record; ``json.loads`` runs only to
name the fault of a text that this reader does not take.
``validate_complex`` checks the incidences of the columns once and
numbers the cells in sorted-id order.  That gives the ``ComplexIndex``
on which the curvature check and the kernels of ``hyperplane_engine``
run.  The two orders differ: a build lists its cells by (height, type,
coefficient index), but as strings ``v/-1/..`` sorts before
``v/-10/..``, and an exponent 10 before an exponent 2.

The builder materialises finite height-truncations of the quotient
complex for parameters (m, k): one vertex orbit per height (coefficients
reduced modulo the height's stabiliser), m free edge orbits per height
and m free square orbits per layer, glued according to the
fundamental-domain incidence rules.

Every built edge points upwards (head one height above tail).  Edge and
square coefficients are never reduced: those cells are in free orbit,
and two distinct edges may share both endpoints when consecutive
heights both branch.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import re
from array import array
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _enc
from typing import Iterator, NamedTuple, Optional, TextIO

from cubespec.coeff_group import Elem, GroupParams, constant, identity, prefix, unit

DEFAULT_SIZE_CAP = 65536


class SpanError(ValueError):
    """Height span too small to hold at least one square layer."""


class SizeCapError(RuntimeError):
    """Requested build exceeds the configured coefficient-group size cap."""


class ComplexFormatError(ValueError):
    """A complex document violates the schema; message carries the path."""


# ---------------------------------------------------------------------------
# parameterised cell references


@dataclass(frozen=True)
class VertexRef:
    height: int
    coeff: Elem  # canonical form, see canonical_vertex


@dataclass(frozen=True)
class EdgeRef:
    height: int  # height of the head (top) vertex
    type_j: int
    coeff: Elem


@dataclass(frozen=True)
class SquareRef:
    height: int  # height of the mid layer
    type_j: int
    coeff: Elem


def canonical_vertex(g: Elem, i: int) -> VertexRef:
    """Reduce a coefficient modulo the stabiliser of a height-i vertex.

    The stabiliser is generated by the constant vector i, so its elements
    are the constant vectors with entries in multiples of gcd(i, k).  The
    canonical representative shifts the first exponent into
    [0, gcd(i, k)).  For prime k that means first exponent 0 at branching
    heights (k does not divide i) and no reduction elsewhere.
    """
    k = g.params.k
    step = math.gcd(i % k, k)
    shift = g.exps[0] - g.exps[0] % step
    if shift:
        return VertexRef(i, g * constant(g.params, -shift))
    return VertexRef(i, g)


def edge_endpoints(ref: EdgeRef) -> tuple[VertexRef, VertexRef]:
    """Tail and head of a built edge; the tail sits one height below."""
    params = ref.coeff.params
    tail = canonical_vertex(ref.coeff * prefix(params, ref.type_j - 1), ref.height - 1)
    head = canonical_vertex(ref.coeff, ref.height)
    return tail, head


def square_boundary(ref: SquareRef) -> tuple[tuple[EdgeRef, str], ...]:
    """Boundary cycle of a built square, from the bottom vertex.

    Sides come in order bottom-right (up), top-right (up), top-left
    (down), bottom-left (down); opposite pairs are positions (0, 2)
    carrying type j and (1, 3) carrying type j+1.  The last type closes
    up cyclically: squares of type m mix types m and 1, and their two
    type-1 sides pick up the constant vector of the layer above.
    """
    params = ref.coeff.params
    j, i, g = ref.type_j, ref.height, ref.coeff
    if not 1 <= j <= params.m:
        raise ValueError(f"type index must be in [1, m], got {j}")
    if j < params.m:
        br = EdgeRef(i, j, g * prefix(params, j))
        tr = EdgeRef(i + 1, j + 1, g)
        tl = EdgeRef(i + 1, j, g)
        bl = EdgeRef(i, j + 1, g * prefix(params, j - 1))
    else:
        d_above = constant(params, i + 1)
        br = EdgeRef(i, params.m, g * prefix(params, params.m))
        tr = EdgeRef(i + 1, 1, g * d_above)
        tl = EdgeRef(i + 1, params.m, g)
        bl = EdgeRef(i, 1, g * d_above * unit(params, params.m).inverse())
    return ((br, "+"), (tr, "+"), (tl, "-"), (bl, "-"))


# ---------------------------------------------------------------------------
# the two forms of a complex


class Cells(NamedTuple):
    """A complex as columns, one per field, with its cells in document order.

    A built complex has ``params``, an int height on every vertex and an
    int type on every edge; a document may have null for any of them.
    Each boundary is four (edge id, dir) sides.
    """

    params: Optional[GroupParams]
    vertex_ids: list[str]
    heights: list[Optional[int]]
    edge_ids: list[str]
    tails: list[str]
    heads: list[str]
    types: list[Optional[int]]
    square_ids: list[str]
    boundaries: list[tuple[tuple[str, str], ...]]

    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertex_ids),
            "edges": len(self.edge_ids),
            "squares": len(self.square_ids),
        }


class ComplexIndex(NamedTuple):
    """Integer view of a complex, made by ``validate_complex``.

    Vertices, edges and squares are numbered in sorted-id order, so a
    lexicographic tie-break on ids is a comparison of indices.  An edge
    end, a node of a vertex link, is ``2*e`` for the head of edge e and
    ``2*e + 1`` for its tail, which keeps the order (edge id, "head" <
    "tail").  Side n of square s is ``sides[4*s + n] = 2*e + (dir ==
    "-")``: read as a node, that is the end of e where the side stops.
    Ids are looked up only where a result names a cell.
    """

    vertex_ids: list[str]
    edge_ids: list[str]
    square_ids: list[str]
    tail: list[int]  # edge index -> vertex index
    head: list[int]
    sides: array  # four per square, 2*e + direction bit, held unboxed
    height: list[Optional[int]]  # vertex index -> height
    type: list[Optional[int]]  # edge index -> type
    params: Optional[GroupParams]

    def ends(self) -> list[int]:
        """Vertex of every edge end: head of e at ``2*e``, tail at ``2*e + 1``."""
        out = [0] * (2 * len(self.edge_ids))
        out[0::2] = self.head
        out[1::2] = self.tail
        return out

    def next_sides(self) -> list[int]:
        """``sides`` turned within each square: entry 4*s + n is side (n + 1) % 4."""
        sides = self.sides
        out = [0] * len(sides)
        for n in range(4):
            out[n::4] = sides[(n + 1) % 4::4]
        return out

    def node(self, x: int) -> list[str]:
        """An edge end named as in documents: [edge id, "head" | "tail"]."""
        return [self.edge_ids[x >> 1], "tail" if x & 1 else "head"]


_DIR_BIT = {"+": 0, "-": 1}
_EDGE_OF, _DIR_OF = operator.itemgetter(0), operator.itemgetter(1)


def validate_complex(cells: Cells) -> ComplexIndex:
    """Check the incidences of a complex and return its integer view.

    Every edge endpoint must be a vertex; every square boundary must have
    four sides on known edges, each with direction '+' or '-', that walk
    a closed loop.  The ids of each kind must be unique, as the loader
    checks and the builder makes them.  One pass in sorted-id order
    checks everything; when it fails, the ordered checks raise
    ``ComplexFormatError`` for the first fault, naming its path: edges
    before squares, each in document order.
    """
    vertex_ids, edge_ids, square_ids = cells.vertex_ids, cells.edge_ids, cells.square_ids
    v_order, e_order, s_order = (
        sorted(range(len(ids)), key=ids.__getitem__) for ids in (vertex_ids, edge_ids, square_ids)
    )
    v_ids, e_ids = [vertex_ids[i] for i in v_order], [edge_ids[i] for i in e_order]
    v_index = dict(zip(v_ids, range(len(v_ids))))
    node = dict(zip(e_ids, range(0, 2 * len(e_ids), 2)))  # edge id -> 2*e, its head end
    try:
        tail = [v_index[cells.tails[i]] for i in e_order]
        head = [v_index[cells.heads[i]] for i in e_order]
    except KeyError:
        eid, end = next(
            (e, v)
            for e, *ends in zip(edge_ids, cells.tails, cells.heads)
            for v in ends
            if v not in v_index
        )
        raise ComplexFormatError(f"edges[{eid!r}]: unknown vertex {end!r}") from None
    ix = ComplexIndex(
        v_ids, e_ids, [square_ids[i] for i in s_order], tail, head, array("l"),
        [cells.heights[i] for i in v_order], [cells.types[i] for i in e_order], cells.params,
    )
    ends, boundaries = ix.ends(), cells.boundaries
    try:
        if {4}.issuperset(map(len, boundaries)):
            flat = list(itertools.chain.from_iterable([boundaries[i] for i in s_order]))
            nodes = map(node.__getitem__, map(_EDGE_OF, flat))
            ix.sides.extend(map(operator.add, nodes, map(_DIR_BIT.__getitem__, map(_DIR_OF, flat))))
            if [ends[w] for w in ix.sides] == [ends[w ^ 1] for w in ix.next_sides()]:
                return ix
    except (KeyError, TypeError):
        pass
    for sid, boundary in zip(square_ids, boundaries):
        path = f"squares[{sid!r}].boundary"
        _require(len(boundary) == 4, path, f"expected 4 sides, got {len(boundary)}")
        for n, (eid, d) in enumerate(boundary):
            _require(eid in node, f"{path}[{n}].edge", f"unknown edge {eid!r}")
            _require(d in ("+", "-"), f"{path}[{n}].dir", f"expected '+' or '-', got {d!r}")
        stops = [ends[node[eid] + _DIR_BIT[d]] for eid, d in boundary]
        starts = [ends[node[eid] + 1 - _DIR_BIT[d]] for eid, d in boundary]
        for n in range(4):
            stop, start = stops[n], starts[(n + 1) % 4]
            where = f"side {n} ends at {v_ids[stop]!r}, side {(n + 1) % 4} starts at"
            _require(stop == start, path, f"walk does not close ({where} {v_ids[start]!r})")
    raise AssertionError("the ordered checks found no fault")


# ---------------------------------------------------------------------------
# builder


def _translation(params: GroupParams, t: Elem) -> list[int]:
    """Index table of g -> g * t over the coefficient index.

    A coefficient's index reads its exponents as a base-k integer, first
    exponent most significant, so index order is lexicographic order.
    """
    k = params.k
    table = [0]
    for x in t.exps:
        digits = [(d + x) % k for d in range(k)]
        table = [base * k + d for base in table for d in digits]
    return table


def check_size_cap(params: GroupParams, size_cap: int) -> None:
    """Raise ``SizeCapError`` when the group order k^m exceeds the cap."""
    if params.order > size_cap:
        raise SizeCapError(f"coefficient group order {params.order} exceeds size cap {size_cap}")


def build_quotient_complex(
    params: GroupParams,
    h_min: int,
    h_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> Cells:
    """Materialise the height-truncation of the quotient complex.

    Vertices appear at every height in [h_min, h_max], edges at every
    height with a layer below, and squares on every layer with room both
    above and below.  Boundary layers simply lack the squares that would
    extend past the truncation; downstream checks compensate with a core
    margin.  Cell ids are deterministic, and each kind of cell is listed
    by (height, type, coefficient index); ``validate_complex`` checks
    and indexes the result.

    The incidence rules are equivariant: the cell with coefficient g has
    the faces of the identity cell translated by g.  So the faces of the
    identity cells are read off ``edge_endpoints`` and ``square_boundary``
    once per (height, type), each translation becomes an index table, and
    the per-cell loops only look up shared ids.
    Reduction modulo a vertex stabiliser commutes with translation, so
    vertex faces go through ``canonical_vertex`` only once per
    coefficient and height residue mod k, which fixes the stabiliser.
    """
    if h_max < h_min + 2:
        raise SpanError(
            f"need h_max >= h_min + 2 for at least one square layer, "
            f"got [{h_min}, {h_max}]"
        )
    check_size_cap(params, size_cap)
    k = params.k
    elems = [Elem(params, exps) for exps in itertools.product(range(k), repeat=params.m)]
    index_of = {g.exps: c for c, g in enumerate(elems)}
    exps_strs = [",".join(map(str, g.exps)) for g in elems]
    one = identity(params)
    tables: dict[tuple[int, ...], list[int]] = {}

    def table(t: Elem) -> list[int]:
        if t.exps not in tables:
            tables[t.exps] = _translation(params, t)
        return tables[t.exps]

    cells = Cells(params, [], [], [], [], [], [], [], [])
    canon_by_residue: dict[int, list[int]] = {}
    vertex_ids: dict[int, list[str]] = {}  # height -> coefficient index -> id
    for i in range(h_min, h_max + 1):
        if i % k not in canon_by_residue:
            canon_by_residue[i % k] = [
                index_of[canonical_vertex(g, i).coeff.exps] for g in elems
            ]
        canon = canon_by_residue[i % k]
        ids = {c: f"v/{i}/{exps_strs[c]}" for c in sorted(set(canon))}
        cells.vertex_ids.extend(ids.values())
        cells.heights.extend([i] * len(ids))
        vertex_ids[i] = [ids[c] for c in canon]
    edge_ids: dict[tuple[int, int], list[str]] = {}
    for i in range(h_min + 1, h_max + 1):
        for j in range(1, params.m + 1):
            eids = edge_ids[i, j] = [f"e/{i}/{j}/{s}" for s in exps_strs]
            tail, head = edge_endpoints(EdgeRef(i, j, one))
            cells.edge_ids.extend(eids)
            cells.tails.extend([vertex_ids[tail.height][x] for x in table(tail.coeff)])
            cells.heads.extend([vertex_ids[head.height][x] for x in table(head.coeff)])
            cells.types.extend([j] * len(eids))
    for i in range(h_min + 1, h_max):
        for j in range(1, params.m + 1):
            sides = [
                [(edge_ids[er.height, er.type_j][x], d) for x in table(er.coeff)]
                for er, d in square_boundary(SquareRef(i, j, one))
            ]
            cells.square_ids.extend([f"s/{i}/{j}/{s}" for s in exps_strs])
            cells.boundaries.extend(zip(*sides))
    return cells


# ---------------------------------------------------------------------------
# links and curvature


def link_corners(ix: ComplexIndex) -> list[list[int]]:
    """Square corners of every vertex link, by vertex index.

    The link of v has the edge ends at v as nodes and one adjacency per
    square corner at v.  Corner c = 4*s + n follows side n of square s:
    it joins node ``sides[c]``, the end where side n stops, to node
    ``next_sides()[c] ^ 1``, the end where the next side starts.  Each
    vertex lists its corners in ascending c: sorted square order, then
    corner position.
    """
    ends = ix.ends()
    corners: list[list[int]] = [[] for _ in ix.vertex_ids]
    for c, side in enumerate(ix.sides):
        corners[ends[side]].append(c)
    return corners


@dataclass
class NpcReport:
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
    """
    failures: list[dict] = []
    sides, after = ix.sides, ix.next_sides()
    n_nodes = 2 * len(ix.edge_ids)
    for v, corners in enumerate(link_corners(ix)):
        seen: dict[int, int] = {}  # packed node pair -> first square
        neighbours: dict[int, set[int]] = {}
        for c in corners:
            na, nb = sides[c], after[c] ^ 1
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
            neighbours.setdefault(na, set()).add(nb)
            neighbours.setdefault(nb, set()).add(na)
        for na in sorted(neighbours):
            around = neighbours[na]
            for nb in sorted(around):
                if nb <= na:
                    continue
                for nc in sorted(around & neighbours[nb]):
                    if nc > nb:
                        failures.append(
                            {
                                "kind": "triangle",
                                "vertex": ix.vertex_ids[v],
                                "nodes": [ix.node(na), ix.node(nb), ix.node(nc)],
                            }
                        )
    return NpcReport(not failures, failures)


# ---------------------------------------------------------------------------
# JSON round trip


def _members(obj: dict) -> str:
    """Members of a top-level object, laid out by ``json.dumps(indent=2)``."""
    return json.dumps(obj, indent=2)[2:-2]


# record templates, laid out as ``json.dumps(indent=2)`` lays out a list item
_VERTEX = '    {\n      "id": %s,\n      "height": %d\n    }'
_EDGE = '    {\n      "id": %s,\n      "tail": %s,\n      "head": %s,\n      "type": %d\n    }'
_SQUARE = '    {\n      "id": %s,\n      "boundary": [\n%s\n      ]\n    }'
_SIDE = '        {\n          "edge": %s,\n          "dir": %s\n        }'
_BATCH = 1024  # records per chunk of the document text


def _chunks(cells: Cells, stamp: Optional[dict]) -> Iterator[str]:
    """The document text of ``cells`` in pieces, a batch of records at a time."""
    params = cells.params
    yield "{\n"
    yield _members({"params": None if params is None else {"m": params.m, "k": params.k}})
    sections = (
        ("vertices", (_VERTEX % (_enc(v), h) for v, h in zip(cells.vertex_ids, cells.heights))),
        ("edges", (
            _EDGE % (_enc(e), _enc(t), _enc(h), j)
            for e, t, h, j in zip(cells.edge_ids, cells.tails, cells.heads, cells.types)
        )),
        ("squares", (
            _SQUARE % (_enc(s), ",\n".join([_SIDE % (_enc(e), _enc(d)) for e, d in sides]))
            for s, sides in zip(cells.square_ids, cells.boundaries)
        )),
    )
    for key, texts in sections:
        batch = list(itertools.islice(texts, _BATCH))
        yield f',\n  "{key}": [' + ("\n" if batch else "]")
        while batch:
            yield ",\n".join(batch)
            batch = list(itertools.islice(texts, _BATCH))
            yield ",\n" if batch else "\n  ]"
    if stamp is not None:
        yield ",\n"
        yield _members({"stamp": stamp})
    yield "\n}\n"


def complex_to_json(cells: Cells, out: TextIO, stamp: Optional[dict] = None) -> None:
    """Write the document of a built complex to the text stream ``out``.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the object with
    keys params, vertices, edges and squares, and then ``stamp`` when it
    is given.  The records are in column order, each made from a
    template with its ids quoted as ``json.dumps`` quotes them, so every
    height and type must be an int, as in a build.  The text is written
    a batch of records at a time, so the whole document is never held.
    """
    out.writelines(_chunks(cells, stamp))


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ComplexFormatError(f"{path}: {message}")


# section -> record kind, its string fields (the id first), its optional integer field
_SCHEMA = {
    "vertices": ("vertex", ("id",), "height"),
    "edges": ("edge", ("id", "tail", "head"), "type"),
    "squares": ("square", ("id",), None),
}


def _sweep(cols: list[list], last: list, optional: Optional[str]) -> bool:
    """The set-based checks of one section's columns, over all records at once.

    ``cols`` are the string fields, the ids first; ``last`` holds the
    optional integers or, for squares, the boundaries as sequences of
    (edge, dir) sides.  True when every string field is a string, the
    ids are unique, and every optional field is an int or None or every
    boundary has four sides, each with a string edge and a dir of '+' or
    '-'.  An unhashable dir raises ``TypeError``.
    """
    ok = {str}.issuperset(map(type, itertools.chain(*cols))) and len(set(cols[0])) == len(last)
    if optional:
        return ok and {int, type(None)}.issuperset(map(type, last))
    if not (ok and {4}.issuperset(map(len, last))):
        return False
    sides = list(itertools.chain.from_iterable(last))
    return {str}.issuperset(map(type, map(_EDGE_OF, sides))) and {"+", "-"}.issuperset(
        map(_DIR_OF, sides)
    )


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


class _Unread(Exception):
    """A section value that the reader cannot make columns of."""


def _square_row(rec: dict, share) -> tuple:
    """A square's id and its sides as (edge, dir) pairs, each edge id shared."""
    a, b, c, d = rec["boundary"]  # raises unless four sides, which the sweep needs
    ea, eb, ec, ed = a["edge"], b["edge"], c["edge"], d["edge"]
    return rec["id"], (
        (share(ea, ea), a["dir"]),
        (share(eb, eb), b["dir"]),
        (share(ec, ec), c["dir"]),
        (share(ed, ed), d["dir"]),
    )


# section -> the fields of one record that the loader reads, the ids first
_ROW = {
    "vertices": lambda rec, share: (rec["id"], rec.get("height")),
    "edges": lambda rec, share: (rec["id"], rec["tail"], rec["head"], rec.get("type")),
    "squares": _square_row,
}


def _read_section(text: str, pos: int, section: str, names: dict) -> tuple[list[list], int]:
    """The fields of the records in the array at ``pos`` and the position past it.

    Records are decoded one at a time, and only their fields are kept,
    a square's sides as (edge, dir) pairs.  The names of vertices and
    edges, which other records repeat, are held once, as the string
    that ``names`` maps each to.  Raises ``_Unread`` when the value is
    not an array or its records fail the sweep, and ``KeyError``,
    ``TypeError`` or ``ValueError`` when a record lacks a field.
    """
    _, strings, optional = _SCHEMA[section]
    if text[pos : pos + 1] != "[":
        raise _Unread
    row, share, scan, rows = _ROW[section], names.setdefault, _DECODER.scan_once, []
    pos = _WS(text, pos + 1).end()
    if text[pos : pos + 1] == "]":
        pos += 1
    else:
        while True:
            rec, pos = scan(text, pos)
            rows.append(row(rec, share))
            after = _NEXT(text, pos)  # a comma or the closing bracket
            if after is None:
                raise _Unread
            pos = after.end()
            if after.lastindex:
                break
    cols = [list(col) for col in zip(*rows)] or [[] for _ in range(len(strings) + 1)]
    del rows
    if not _sweep(cols[:-1], cols[-1], optional):
        raise _Unread
    if section != "squares":
        cols[:-1] = [list(map(share, col, col)) for col in cols[:-1]]
    return cols, pos


def _read_columns(text: str) -> Optional[Cells]:
    """The columns of a document text, or None when the text has a fault.

    The top level is walked key by key and each section record by
    record, so no record outlives the reading of its fields.  A repeated
    key keeps its last value, as in ``json.loads``.  A section value that
    cannot be made into columns is skipped as unread, so the reader
    takes every valid document.  None when a section is missing or its
    last value is unread (not a list, or a record that fails the sweep),
    for a top level that is not an object, invalid ``params``, trailing
    data, a BOM, or any decode error.
    """
    found: dict = {}
    names: dict = {}
    try:
        pos = _WS(text, 0).end()
        if text[pos : pos + 1] != "{":
            return None
        pos = _WS(text, pos + 1).end()
        while True:
            if text[pos : pos + 1] != '"':
                return None
            key, pos = scanstring(text, pos + 1)
            pos = _WS(text, pos).end()
            if text[pos : pos + 1] != ":":
                return None
            pos = _WS(text, pos + 1).end()
            if key not in _SCHEMA:
                found[key], pos = _DECODER.scan_once(text, pos)
            else:
                try:
                    found[key], pos = _read_section(text, pos, key, names)
                except (_Unread, KeyError, TypeError, ValueError):
                    # unread; a decode error raises again in the rescan
                    found[key], pos = None, _DECODER.scan_once(text, pos)[1]
            pos = _WS(text, pos).end()
            if text[pos : pos + 1] != ",":
                break
            pos = _WS(text, pos + 1).end()
        if text[pos : pos + 1] != "}" or _WS(text, pos + 1).end() != len(text):
            return None
        if None in map(found.get, _SCHEMA):  # a section missing or unread
            return None
        params = _params(found.get("params"))
    except (StopIteration, ValueError, RecursionError):
        return None
    return Cells(params, *itertools.chain.from_iterable(found[key] for key in _SCHEMA))


def complex_from_json(text: str) -> ComplexIndex:
    """Validate the text of a complex document straight into its integer view.

    The text is read one record at a time into the columns of ``Cells``,
    and ``validate_complex`` checks their incidences.  Unknown fields
    are ignored, and a repeated top-level key keeps its last value, as
    in ``json.loads``.

    The reader takes every valid document, so text it does not take has
    a fault, and what is left is to name the first one.  The text is
    parsed whole by ``json.loads`` and checked in order: the top level
    and ``params``, then the records of the vertices, edges and squares,
    each in document order.  The first fault raises
    ``ComplexFormatError`` naming its path; invalid JSON raises
    "invalid JSON: ...", and nesting too deep for the decoder names $.
    """
    cells = _read_columns(text)
    if cells is not None:
        del text  # the text is dropped before the view is made
        return validate_complex(cells)
    try:
        doc = json.loads(text)
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
    raise AssertionError("the ordered checks found no fault")
