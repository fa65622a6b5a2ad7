"""Combinatorial square complexes and the quotient-complex builder.

A generic square complex is a set of vertices, directed edges and
squares whose boundaries are closed walks of four directed edges, keyed
by id.  The curvature check and the kernels of ``hyperplane_engine`` run
on its integer view, a ``ComplexIndex``, which ``complex_from_json``
validates a document straight into and ``validate_complex`` makes of a
``SquareComplex``.  The builder materialises
finite height-truncations of the quotient complex for parameters
(m, k): one vertex orbit per height (coefficients reduced modulo the
height's stabiliser), m free edge orbits per height and m free square
orbits per layer, glued according to the fundamental-domain incidence
rules.

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
from dataclasses import dataclass, field
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as _enc
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

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
# generic complex


@dataclass
class Vertex:
    id: str
    height: Optional[int] = None
    extra: dict = field(default_factory=dict)


@dataclass
class Edge:
    id: str
    tail: str
    head: str
    type: Optional[int] = None
    extra: dict = field(default_factory=dict)


@dataclass
class Square:
    id: str
    boundary: tuple[tuple[str, str], ...]  # four (edge id, "+"/"-") sides
    extra: dict = field(default_factory=dict)


@dataclass
class SquareComplex:
    """Cells keyed by id, the group parameters and unknown fields.

    A built complex names its cells only by id: ``params`` is set, every
    vertex has a height and every edge a type, and ``parse_edge_ids``
    reads an edge's ref back from its id.  Hand-made complexes have
    ``params`` None.  ``complex_to_json`` writes the records and their
    unknown fields; ``complex_from_json`` makes no records.
    """

    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    squares: dict[str, Square] = field(default_factory=dict)
    params: Optional[GroupParams] = None
    extra: dict = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "squares": len(self.squares),
        }


class ComplexIndex(NamedTuple):
    """Integer view of a complex, made by ``complex_from_json`` from a
    document or by ``validate_complex`` from a ``SquareComplex``.

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


def _indexed(params, vertex_ids, heights, edge_ids, tails, heads, square_ids, boundaries, side):
    """Check the incidences of cells with unique ids and number them.

    The lists give the cells in insertion order, and ``side`` holds the
    getters of a side's edge id and dir.  One pass in sorted-id order
    checks everything; when it fails, the ordered checks raise the first
    fault: edges before squares, each in insertion order.
    """
    v_order, e_order, s_order = (
        sorted(range(len(ids)), key=ids.__getitem__) for ids in (vertex_ids, edge_ids, square_ids)
    )
    v_ids, e_ids = [vertex_ids[i] for i in v_order], [edge_ids[i] for i in e_order]
    v_index = dict(zip(v_ids, range(len(v_ids))))
    node = dict(zip(e_ids, range(0, 2 * len(e_ids), 2)))  # edge id -> 2*e, its head end
    try:
        tail = [v_index[tails[i]] for i in e_order]
        head = [v_index[heads[i]] for i in e_order]
    except KeyError:
        eid, end = next(
            (e, v) for e, *ends in zip(edge_ids, tails, heads) for v in ends if v not in v_index
        )
        raise ComplexFormatError(f"edges[{eid!r}]: unknown vertex {end!r}") from None
    s_ids, v_heights = [square_ids[i] for i in s_order], [heights[i] for i in v_order]
    ix = ComplexIndex(v_ids, e_ids, s_ids, tail, head, array("l"), v_heights, params)
    ends, (edge_of, dir_of) = ix.ends(), side
    try:
        if {4}.issuperset(map(len, boundaries)):
            flat = list(itertools.chain.from_iterable([boundaries[i] for i in s_order]))
            nodes = map(node.__getitem__, map(edge_of, flat))
            ix.sides.extend(map(operator.add, nodes, map(_DIR_BIT.__getitem__, map(dir_of, flat))))
            if [ends[w] for w in ix.sides] == [ends[w ^ 1] for w in ix.next_sides()]:
                return ix
    except (KeyError, TypeError):
        pass
    for sid, boundary in zip(square_ids, boundaries):
        path = f"squares[{sid!r}].boundary"
        _require(len(boundary) == 4, path, f"expected 4 sides, got {len(boundary)}")
        for n, (eid, d) in enumerate(zip(map(edge_of, boundary), map(dir_of, boundary))):
            _require(eid in node, f"{path}[{n}].edge", f"unknown edge {eid!r}")
            _require(d in ("+", "-"), f"{path}[{n}].dir", f"expected '+' or '-', got {d!r}")
        stops = [ends[node[edge_of(x)] + _DIR_BIT[dir_of(x)]] for x in boundary]
        starts = [ends[node[edge_of(x)] + 1 - _DIR_BIT[dir_of(x)]] for x in boundary]
        for n in range(4):
            stop, start = stops[n], starts[(n + 1) % 4]
            where = f"side {n} ends at {v_ids[stop]!r}, side {(n + 1) % 4} starts at"
            _require(stop == start, path, f"walk does not close ({where} {v_ids[start]!r})")
    raise AssertionError("the ordered checks found no fault")


def validate_complex(X: SquareComplex) -> ComplexIndex:
    """Check the incidences of a complex and return its integer view.

    Every edge endpoint must be a vertex; every square boundary must have
    four sides on known edges, each with direction '+' or '-', that walk
    a closed loop.  Edges are checked before squares, each in insertion
    order, and the first fault raises ``ComplexFormatError`` naming its
    path.  The view carries ``X.params``.
    """
    vs, es = X.vertices.values(), X.edges.values()
    return _indexed(
        X.params, list(X.vertices), [v.height for v in vs], list(X.edges), [e.tail for e in es],
        [e.head for e in es], list(X.squares), [s.boundary for s in X.squares.values()], _PAIR,
    )


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


def check_size_cap(
    params: GroupParams, size_cap: int, what: str = "coefficient group order"
) -> None:
    """Raise ``SizeCapError`` when the group order k^m exceeds the cap.

    ``what`` names the work that would take k^m steps.
    """
    if params.order > size_cap:
        raise SizeCapError(f"{what} {params.order} exceeds size cap {size_cap}")


def build_quotient_complex(
    params: GroupParams,
    h_min: int,
    h_max: int,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> SquareComplex:
    """Materialise the height-truncation of the quotient complex.

    Vertices appear at every height in [h_min, h_max], edges at every
    height with a layer below, and squares on every layer with room both
    above and below.  Boundary layers simply lack the squares that would
    extend past the truncation; downstream checks compensate with a core
    margin.  Cell ids are deterministic.

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

    X = SquareComplex(params=params)
    canon_by_residue: dict[int, list[int]] = {}
    vertex_ids: dict[int, list[str]] = {}  # height -> coefficient index -> id
    for i in range(h_min, h_max + 1):
        if i % k not in canon_by_residue:
            canon_by_residue[i % k] = [
                index_of[canonical_vertex(g, i).coeff.exps] for g in elems
            ]
        canon = canon_by_residue[i % k]
        ids = {c: f"v/{i}/{exps_strs[c]}" for c in sorted(set(canon))}
        for vid in ids.values():
            X.vertices[vid] = Vertex(vid, height=i)
        vertex_ids[i] = [ids[c] for c in canon]
    edge_ids: dict[tuple[int, int], list[str]] = {}
    for i in range(h_min + 1, h_max + 1):
        for j in range(1, params.m + 1):
            eids = [f"e/{i}/{j}/{s}" for s in exps_strs]
            edge_ids[i, j] = eids
            tail, head = edge_endpoints(EdgeRef(i, j, one))
            tails = [vertex_ids[tail.height][x] for x in table(tail.coeff)]
            heads = [vertex_ids[head.height][x] for x in table(head.coeff)]
            for eid, t, h in zip(eids, tails, heads):
                X.edges[eid] = Edge(eid, t, h, type=j)
    for i in range(h_min + 1, h_max):
        for j in range(1, params.m + 1):
            sides = [
                [(edge_ids[er.height, er.type_j][x], d) for x in table(er.coeff)]
                for er, d in square_boundary(SquareRef(i, j, one))
            ]
            for s, boundary in zip(exps_strs, zip(*sides)):
                sid = f"s/{i}/{j}/{s}"
                X.squares[sid] = Square(sid, boundary)
    validate_complex(X)
    return X


def parse_edge_ids(X: SquareComplex, eids: Iterable[str]) -> dict[str, EdgeRef]:
    """Refs of built edges, read back from their ids ``e/<height>/<type>/<exps>``.

    Raises ``ValueError`` naming the id when it does not parse, is not
    written as the builder writes it, has a type or exponents out of
    range for ``X.params``, or is not a stored edge with that type and
    its head at that height.  Equal exponents share one ``Elem``.
    """
    params = X.params
    if params is None:
        raise ValueError("edge ids name refs only in a built complex; params is null")
    m, k = params.m, params.k
    coeffs: dict[str, Elem] = {}
    refs: dict[str, EdgeRef] = {}
    for eid in eids:
        parts = eid.split("/")
        g = coeffs.get(parts[-1])
        try:
            height, type_j = int(parts[1]), int(parts[2])
            exps = g.exps if g is not None else tuple(map(int, parts[3].split(",")))
        except (IndexError, ValueError):
            raise ValueError(f"edge id {eid!r}: expected e/<height>/<type>/<exps>") from None
        if eid != f"e/{height}/{type_j}/{','.join(map(str, exps))}":
            raise ValueError(f"edge id {eid!r}: not written as the builder writes ids")
        if not 1 <= type_j <= m or len(exps) != m or not all(0 <= x < k for x in exps):
            raise ValueError(f"edge id {eid!r}: type or exponents out of range for {params}")
        if g is None:
            g = coeffs[parts[3]] = Elem(params, exps)
        edge = X.edges.get(eid)
        if edge is None or edge.type != type_j or X.vertices[edge.head].height != height:
            raise ValueError(f"edge id {eid!r}: no stored edge of that type and head height")
        refs[eid] = EdgeRef(height, type_j, g)
    return refs


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


_TOP_KEYS = {"params", "vertices", "edges", "squares"}


def _dumped_record(rec: dict, extra: dict) -> str:
    """A list record with its extra fields, laid out by ``json.dumps``.

    Exact at any depth because an encoded JSON value never holds a raw
    newline, so indenting every line break indents every nested line.
    """
    text = json.dumps({**rec, **dict(sorted(extra.items()))}, indent=2)
    return "    " + text.replace("\n", "\n    ")


def _members(obj: dict) -> str:
    """Members of a top-level object, laid out by ``json.dumps(indent=2)``."""
    return json.dumps(obj, indent=2)[2:-2]


def _plain_int(value) -> Optional[str]:
    """JSON text of an int or None; None for any other value."""
    if value is None:
        return "null"
    return str(value) if type(value) is int else None


def _vertex_record(v: Vertex) -> str:
    height = _plain_int(v.height)
    if v.extra or height is None:
        return _dumped_record({"id": v.id, "height": v.height}, v.extra)
    return f'    {{\n      "id": {_enc(v.id)},\n      "height": {height}\n    }}'


def _edge_record(e: Edge) -> str:
    type_ = _plain_int(e.type)
    if e.extra or type_ is None:
        rec = {"id": e.id, "tail": e.tail, "head": e.head, "type": e.type}
        return _dumped_record(rec, e.extra)
    return (
        f'    {{\n      "id": {_enc(e.id)},\n      "tail": {_enc(e.tail)},\n'
        f'      "head": {_enc(e.head)},\n      "type": {type_}\n    }}'
    )


def _square_record(s: Square) -> str:
    if s.extra or not s.boundary:
        sides = [{"edge": eid, "dir": d} for eid, d in s.boundary]
        return _dumped_record({"id": s.id, "boundary": sides}, s.extra)
    sides = ",\n".join(
        f'        {{\n          "edge": {_enc(eid)},\n          "dir": {_enc(d)}\n        }}'
        for eid, d in s.boundary
    )
    return f'    {{\n      "id": {_enc(s.id)},\n      "boundary": [\n{sides}\n      ]\n    }}'


_BATCH = 1024  # records per chunk of the document text


def _chunks(X: SquareComplex) -> Iterator[str]:
    """The document text of ``X`` in pieces, a batch of records at a time."""
    params = None if X.params is None else {"m": X.params.m, "k": X.params.k}
    yield "{\n"
    yield _members({"params": X.extra.get("params", params)})
    sections = (
        ("vertices", _vertex_record, X.vertices),
        ("edges", _edge_record, X.edges),
        ("squares", _square_record, X.squares),
    )
    for key, record, cells in sections:
        yield ",\n"
        if key in X.extra:
            yield _members({key: X.extra[key]})
        elif cells:
            yield f'  "{key}": [\n'
            texts = map(record, cells.values())
            yield ",\n".join(itertools.islice(texts, _BATCH))
            while batch := list(itertools.islice(texts, _BATCH)):
                yield ",\n"
                yield ",\n".join(batch)
            yield "\n  ]"
        else:
            yield f'  "{key}": []'
    rest = {key: X.extra[key] for key in sorted(X.extra) if key not in _TOP_KEYS}
    if rest:
        yield ",\n"
        yield _members(rest)
    yield "\n}\n"


def complex_to_json(X: SquareComplex, out: Optional[TextIO] = None) -> Optional[str]:
    """The complex document as JSON text, written record by record.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the object with
    keys params, vertices, edges and squares, then the extra top-level
    keys in sorted order (an extra key named like a section replaces it).
    Plain records come from templates with ids quoted as ``json.dumps``
    quotes them; records with extra fields, an empty boundary or
    non-int heights or types go through ``json.dumps`` itself.

    Without ``out`` the text is returned.  With a text stream ``out``
    the same text is written to it a batch of records at a time, so the
    whole document is never held, and None is returned.
    """
    if out is None:
        return "".join(_chunks(X))
    out.writelines(_chunks(X))
    return None


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ComplexFormatError(f"{path}: {message}")


# section -> record kind, its string fields (the id first), its optional integer field
_SCHEMA = {
    "vertices": ("vertex", ("id",), "height"),
    "edges": ("edge", ("id", "tail", "head"), "type"),
    "squares": ("square", ("id",), None),
}
# getters of a side's edge id and dir: in a document, and in a ``Square`` boundary
_SIDE = (operator.itemgetter("edge"), operator.itemgetter("dir"))
_PAIR = (operator.itemgetter(0), operator.itemgetter(1))


def _sweep(cols: list[list], last: list, optional: Optional[str], side) -> bool:
    """The set-based checks of one section's columns, over all records at once.

    ``cols`` are the string fields, the ids first; ``last`` holds the
    optional integers or, for squares, the boundaries as sequences of
    sides read by the ``side`` getters.  True when every string field is
    a string, the ids are unique, and every optional field is an int or
    None or every boundary has four sides, each with a string edge and
    a dir of '+' or '-'.  A side the getters cannot read raises.
    """
    ok = {str}.issuperset(map(type, itertools.chain(*cols))) and len(set(cols[0])) == len(last)
    if optional:
        return ok and {int, type(None)}.issuperset(map(type, last))
    if not (ok and {4}.issuperset(map(len, last))):
        return False
    sides = list(itertools.chain.from_iterable(last))
    return {str}.issuperset(map(type, map(side[0], sides))) and {"+", "-"}.issuperset(
        map(side[1], sides)
    )


def _fields(doc: dict, section: str) -> list[list]:
    """The fields of a section's records, one list each in record order.

    The string fields come first, then the optional integer or, for
    squares, the boundaries.  One sweep reads and checks all records;
    when one is malformed, the ordered checks raise the first fault with
    its path.
    """
    kind, strings, optional = _SCHEMA[section]
    recs = doc[section]
    try:
        cols = [[rec[key] for rec in recs] for key in strings]
        last = [rec.get(optional) if optional else rec["boundary"] for rec in recs]
        lists = optional or {list}.issuperset(map(type, last))
        ok = lists and _sweep(cols, last, optional, _SIDE)
    except (TypeError, KeyError):
        ok = False
    seen = set()
    for n, rec in enumerate([] if ok else recs):
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
    return cols + [last]


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
    """Text that the streamed reader leaves to ``json.loads``."""


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
    not an array or its records fail the sweep.
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
    if not _sweep(cols[:-1], cols[-1], optional, _PAIR):
        raise _Unread
    if section != "squares":
        cols[:-1] = [list(map(share, col, col)) for col in cols[:-1]]
    return cols, pos


def _read_columns(text: str) -> Optional[tuple]:
    """The arguments of ``_indexed`` for a document text, or None.

    The top level is walked key by key and each section record by
    record, so no record outlives the reading of its fields.  None when
    the text is not taken: a top level that is not an object, a repeated
    top-level key, a missing section or one that is not a list, invalid
    ``params``, a record that fails the sweep, trailing data, a BOM, or
    any decode error.
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
            if key in found or text[pos : pos + 1] != ":":
                return None
            pos = _WS(text, pos + 1).end()
            if key in _SCHEMA:
                found[key], pos = _read_section(text, pos, key, names)
            else:
                found[key], pos = _DECODER.scan_once(text, pos)
            pos = _WS(text, pos).end()
            if text[pos : pos + 1] != ",":
                break
            pos = _WS(text, pos + 1).end()
        if text[pos : pos + 1] != "}" or _WS(text, pos + 1).end() != len(text):
            return None
        if not found.keys() >= _SCHEMA.keys():
            return None
        params = _params(found.get("params"))
    except (_Unread, StopIteration, ValueError, TypeError, KeyError, RecursionError):
        return None
    (vertex_ids, heights), (edge_ids, tails, heads, _), (square_ids, boundaries) = (
        found[key] for key in _SCHEMA
    )
    return params, vertex_ids, heights, edge_ids, tails, heads, square_ids, boundaries, _PAIR


def complex_from_json(doc: dict | str) -> ComplexIndex:
    """Validate a complex document straight into its integer view.

    ``doc`` is a parsed document or, as a str, its JSON text.  The top
    level and ``params`` are checked first, then the records of the
    vertices, edges and squares, each in document order, and then the
    incidences, as ``validate_complex`` checks them; the first fault
    raises ``ComplexFormatError`` naming its path.  No cell records are
    made: edge types are checked and dropped, and unknown fields are
    ignored.

    Text is read one record at a time into the fields that the view is
    made of, with the same sweep over them as a parsed document gets.
    Text that this reader does not take is parsed whole by
    ``json.loads`` and checked as a parsed document, so every message is
    the same either way; invalid JSON raises ``ComplexFormatError``
    "invalid JSON: ...".
    """
    if isinstance(doc, str):
        columns = _read_columns(doc)
        if columns is not None:
            del doc  # the text is dropped before the view is made
            return _indexed(*columns)
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ComplexFormatError(f"invalid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    for key in ("vertices", "edges", "squares"):
        _require(key in doc, "$", f"missing key {key!r}")
        _require(isinstance(doc[key], list), key, "expected a list")
    params = _params(doc.get("params"))
    vertex_ids, heights = _fields(doc, "vertices")
    edge_ids, tails, heads, _ = _fields(doc, "edges")
    square_ids, boundaries = _fields(doc, "squares")
    return _indexed(
        params, vertex_ids, heights, edge_ids, tails, heads, square_ids, boundaries, _SIDE
    )
