"""Combinatorial square complexes and the quotient-complex builder.

A generic square complex is a set of vertices, directed edges and
squares whose boundaries are closed walks of four directed edges, keyed
by id.  ``validate_complex`` checks the incidences and returns the
complex's integer view, a ``ComplexIndex``, on which the curvature check
and the kernels of ``hyperplane_engine`` run.  The builder materialises
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
from array import array
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _enc
from typing import Iterable, NamedTuple, Optional

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
    """Cells keyed by id, the group parameters and unknown top-level fields.

    A built complex is no different from one loaded from its document:
    ``params`` is set, every vertex has a height and every edge a type,
    and the ids are the only naming of a built cell.  ``parse_edge_ids``
    reads an edge's ref back from its id.  Hand-made complexes have
    ``params`` None.  A loaded complex keeps in ``index`` the integer view
    it was validated into, which describes the cells as loaded.
    """

    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    squares: dict[str, Square] = field(default_factory=dict)
    params: Optional[GroupParams] = None
    extra: dict = field(default_factory=dict)
    index: Optional[ComplexIndex] = field(default=None, repr=False, compare=False)

    def counts(self) -> dict[str, int]:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "squares": len(self.squares),
        }


class ComplexIndex(NamedTuple):
    """Integer view of a complex, made by ``validate_complex``.

    Vertices, edges and squares are numbered in sorted-id order, so a
    lexicographic tie-break on ids is a comparison of indices.  An edge
    end, a node of a vertex link, is ``2*e`` for the head of edge e and
    ``2*e + 1`` for its tail, which keeps the order (edge id, "head" <
    "tail").  Side n of square s is ``sides[4*s + n] = 2*e + (dir ==
    "-")``: read as a node, that is the end of e where the side stops.
    Ids are looked up only where a result names a cell.  The view is
    made per call; only a loaded complex keeps the one it was validated
    into (``SquareComplex.index``).
    """

    vertex_ids: list[str]
    edge_ids: list[str]
    square_ids: list[str]
    tail: list[int]  # edge index -> vertex index
    head: list[int]
    sides: array  # four per square, 2*e + direction bit, held unboxed
    height: list[Optional[int]]  # vertex index -> height

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


def _check_sides(s: Square, e_index: dict[str, int]) -> None:
    """Raise on the first malformed side of a square boundary, in order."""
    if len(s.boundary) != 4:
        raise ComplexFormatError(
            f"squares[{s.id!r}].boundary: expected 4 sides, got {len(s.boundary)}"
        )
    for n, (eid, d) in enumerate(s.boundary):
        if e_index.get(eid) is None:
            raise ComplexFormatError(
                f"squares[{s.id!r}].boundary[{n}].edge: unknown edge {eid!r}"
            )
        if d not in ("+", "-"):
            raise ComplexFormatError(
                f"squares[{s.id!r}].boundary[{n}].dir: expected '+' or '-', got {d!r}"
            )


def validate_complex(X: SquareComplex) -> ComplexIndex:
    """Check the incidences of a complex and return its integer view.

    Every edge endpoint must be a vertex; every square boundary must have
    four sides on known edges, each with direction '+' or '-', that walk
    a closed loop.  Edges are checked before squares, each in insertion
    order, and the first fault raises ``ComplexFormatError`` naming its
    path.  The view (see ``ComplexIndex``) numbers the cells in sorted-id
    order.
    """
    vertex_ids, edge_ids, square_ids = sorted(X.vertices), sorted(X.edges), sorted(X.squares)
    v_index = {v: n for n, v in enumerate(vertex_ids)}
    e_index = {e: n for n, e in enumerate(edge_ids)}
    s_index = {s: n for n, s in enumerate(square_ids)}
    tail, head = [0] * len(edge_ids), [0] * len(edge_ids)
    for eid, e in X.edges.items():
        t, h = v_index.get(e.tail), v_index.get(e.head)
        if t is None or h is None:
            raise ComplexFormatError(
                f"edges[{e.id!r}]: unknown vertex {e.tail if t is None else e.head!r}"
            )
        n = e_index[eid]
        tail[n], head[n] = t, h
    sides = array("l", [0]) * (4 * len(square_ids))
    heights = [X.vertices[v].height for v in vertex_ids]
    ix = ComplexIndex(vertex_ids, edge_ids, square_ids, tail, head, sides, heights)
    ends = ix.ends()
    for sid, s in X.squares.items():
        try:
            (e0, d0), (e1, d1), (e2, d2), (e3, d3) = s.boundary
            walk = (
                2 * e_index[e0] + _DIR_BIT[d0],
                2 * e_index[e1] + _DIR_BIT[d1],
                2 * e_index[e2] + _DIR_BIT[d2],
                2 * e_index[e3] + _DIR_BIT[d3],
            )
        except (ValueError, KeyError, TypeError):
            _check_sides(s, e_index)  # raises the first fault with its path
            raise
        w0, w1, w2, w3 = walk
        stops = (ends[w0], ends[w1], ends[w2], ends[w3])
        starts = (ends[w1 ^ 1], ends[w2 ^ 1], ends[w3 ^ 1], ends[w0 ^ 1])
        if stops != starts:
            n = next(n for n in range(4) if stops[n] != starts[n])
            raise ComplexFormatError(
                f"squares[{s.id!r}].boundary: walk does not close "
                f"(side {n} ends at {vertex_ids[stops[n]]!r}, side {(n + 1) % 4} "
                f"starts at {vertex_ids[starts[n]]!r})"
            )
        at = 4 * s_index[sid]
        sides[at], sides[at + 1], sides[at + 2], sides[at + 3] = walk
    return ix


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


_VERTEX_KEYS = {"id", "height"}
_EDGE_KEYS = {"id", "tail", "head", "type"}
_SQUARE_KEYS = {"id", "boundary"}
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


def complex_to_json(X: SquareComplex) -> str:
    """The complex document as JSON text, written record by record.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the object with
    keys params, vertices, edges and squares, then the extra top-level
    keys in sorted order (an extra key named like a section replaces it).
    Plain records come from templates with ids quoted as ``json.dumps``
    quotes them; records with extra fields, an empty boundary or
    non-int heights or types go through ``json.dumps`` itself.
    """
    params = None if X.params is None else {"m": X.params.m, "k": X.params.k}
    chunks = ["{\n", _members({"params": X.extra.get("params", params)})]
    sections = (
        ("vertices", _vertex_record, X.vertices),
        ("edges", _edge_record, X.edges),
        ("squares", _square_record, X.squares),
    )
    for key, record, cells in sections:
        chunks.append(",\n")
        if key in X.extra:
            chunks.append(_members({key: X.extra[key]}))
        elif cells:
            chunks += [f'  "{key}": [\n', ",\n".join(map(record, cells.values())), "\n  ]"]
        else:
            chunks.append(f'  "{key}": []')
    rest = {key: X.extra[key] for key in sorted(X.extra) if key not in _TOP_KEYS}
    if rest:
        chunks += [",\n", _members(rest)]
    chunks.append("\n}\n")
    return "".join(chunks)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ComplexFormatError(f"{path}: {message}")


def _opt_int(value, path: str) -> Optional[int]:
    if value is None:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer or null")
    return value


def complex_from_json(doc: dict) -> SquareComplex:
    """Parse and validate a complex document; unknown fields are preserved."""
    _require(isinstance(doc, dict), "$", "expected a JSON object")
    for key in ("vertices", "edges", "squares"):
        _require(key in doc, "$", f"missing key {key!r}")
        _require(isinstance(doc[key], list), key, "expected a list")
    params = None
    raw_params = doc.get("params")
    if raw_params is not None:
        _require(isinstance(raw_params, dict), "params", "expected an object or null")
        for key in ("m", "k"):
            _require(key in raw_params, "params", f"missing key {key!r}")
        try:
            params = GroupParams(raw_params["m"], raw_params["k"])
        except (TypeError, ValueError) as exc:
            raise ComplexFormatError(f"params: {exc}") from exc
    X = SquareComplex(params=params)
    for n, rec in enumerate(doc["vertices"]):
        path = f"vertices[{n}]"
        _require(isinstance(rec, dict), path, "expected an object")
        _require("id" in rec and isinstance(rec["id"], str), path, "missing string 'id'")
        _require(rec["id"] not in X.vertices, path, f"duplicate vertex id {rec['id']!r}")
        X.vertices[rec["id"]] = Vertex(
            rec["id"],
            height=_opt_int(rec.get("height"), f"{path}.height"),
            extra={k: v for k, v in rec.items() if k not in _VERTEX_KEYS},
        )
    for n, rec in enumerate(doc["edges"]):
        path = f"edges[{n}]"
        _require(isinstance(rec, dict), path, "expected an object")
        for key in ("id", "tail", "head"):
            _require(
                key in rec and isinstance(rec[key], str), path, f"missing string {key!r}"
            )
        _require(rec["id"] not in X.edges, path, f"duplicate edge id {rec['id']!r}")
        X.edges[rec["id"]] = Edge(
            rec["id"],
            rec["tail"],
            rec["head"],
            type=_opt_int(rec.get("type"), f"{path}.type"),
            extra={k: v for k, v in rec.items() if k not in _EDGE_KEYS},
        )
    for n, rec in enumerate(doc["squares"]):
        path = f"squares[{n}]"
        _require(isinstance(rec, dict), path, "expected an object")
        _require("id" in rec and isinstance(rec["id"], str), path, "missing string 'id'")
        _require(rec["id"] not in X.squares, path, f"duplicate square id {rec['id']!r}")
        raw_boundary = rec.get("boundary")
        _require(isinstance(raw_boundary, list), f"{path}.boundary", "expected a list")
        _require(
            len(raw_boundary) == 4,
            f"{path}.boundary",
            f"expected 4 sides, got {len(raw_boundary)}",
        )
        sides = []
        for sn, side in enumerate(raw_boundary):
            spath = f"{path}.boundary[{sn}]"
            _require(isinstance(side, dict), spath, "expected an object")
            _require(
                "edge" in side and isinstance(side["edge"], str),
                spath,
                "missing string 'edge'",
            )
            _require(
                side.get("dir") in ("+", "-"), f"{spath}.dir", "expected '+' or '-'"
            )
            sides.append((side["edge"], side["dir"]))
        X.squares[rec["id"]] = Square(
            rec["id"],
            tuple(sides),
            extra={k: v for k, v in rec.items() if k not in _SQUARE_KEYS},
        )
    X.extra = {k: v for k, v in doc.items() if k not in _TOP_KEYS}
    X.index = validate_complex(X)
    return X
