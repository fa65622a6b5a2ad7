"""Reference implementations that the tests compare the program against.

Each one restates a definition directly, without the program's tables
or shortcuts: cell ids from refs, the vertex stabiliser in closed form,
the square ref of a built square, from-scratch re-checks of single
interaction witnesses, and the incidence validation, curvature check,
parallelism union-find and interaction report keyed by id strings, as they ran before the
program moved to the integer view of a complex.

They run on ``SquareComplex``, a complex as ``Vertex``/``Edge``/``Square``
records keyed by id, each with its unknown fields, as the program held
one before it kept a complex as document-order columns (``Cells``).
``records`` and ``columns`` turn one form into the other, and
``indexed`` checks the incidences of a record complex by the id-keyed
``validate_complex`` here and makes the program's view of it.
``complex_from_json`` is the document loader that builds records and
keeps unknown fields, as it ran before the program loaded a document
straight into its integer view; it does not validate the incidences.
``complex_to_json`` writes records, their unknown fields, extra
top-level keys and any height or type through ``json.dumps``.
``parse_edge_ids`` reads the ``EdgeRef`` of a built edge back from its
id.  The climb coset and
the osculation classifier compute with ``Elem`` arithmetic and a k-step
discrete log, as they ran before the program moved to coefficient
indices.  ``find_separating_character`` is the lexicographic search over
all k^m characters (``all_characters``) that the program ran when a
family's named character failed, before it kept the named character as
the only one.  ``named_partition``,
``named_report`` and ``named_core`` turn the program's index-keyed
results into the id-keyed form of these references; the program keeps
no witness per osculating class pair, so ``named_report`` lists its
pairs in ascending order, where the reference keys its first witnesses.
``identity_matrix``, ``matrix_product`` and ``determinant`` check the
unimodular transforms of a Smith Normal Form.
"""

from __future__ import annotations

import itertools
import json
from array import array
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from cubespec.algebra_tools import IntMatrix
from cubespec.coeff_group import (
    Character,
    Elem,
    GroupParams,
    ParameterMismatchError,
    Subgroup,
    constant,
    edge_type_stabilizer,
    identity,
    prefix,
    subgroup_cyclic,
    unit,
)
from cubespec.complex_model import Cells, ComplexFormatError, ComplexIndex, NpcReport
from cubespec.incidence import EdgeRef, SquareRef, VertexRef
from cubespec import complex_model
from cubespec import hyperplane_engine as engine


# ---------------------------------------------------------------------------
# a complex as records


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
    """Cells keyed by id, the group parameters and unknown top-level fields."""

    vertices: dict[str, Vertex] = field(default_factory=dict)
    edges: dict[str, Edge] = field(default_factory=dict)
    squares: dict[str, Square] = field(default_factory=dict)
    params: Optional[GroupParams] = None
    extra: dict = field(default_factory=dict)


def records(cells: Cells) -> SquareComplex:
    """The records of a complex given as columns, inserted in column order."""
    X = SquareComplex(params=cells.params)
    vids, eids = cells.vertex_ids, cells.edge_ids
    for vid, height in zip(vids, cells.heights):
        X.vertices[vid] = Vertex(vid, height)
    for eid, head, tail, type_j in zip(eids, cells.ends[0::2], cells.ends[1::2], cells.types):
        X.edges[eid] = Edge(eid, vids[tail], vids[head], type_j)
    for s, sid in enumerate(cells.square_ids):
        sides = cells.sides[4 * s : 4 * s + 4]
        X.squares[sid] = Square(sid, tuple((eids[x // 2], "+-"[x % 2]) for x in sides))
    return X


def columns(X: SquareComplex) -> Cells:
    """The columns of a record complex, in insertion order; unknown fields are dropped.

    Every reference must name a cell, as ``validate_complex`` of the
    records checks."""
    vs, es = X.vertices.values(), X.edges.values()
    v_at = {vid: p for p, vid in enumerate(X.vertices)}
    e_at = {eid: p for p, eid in enumerate(X.edges)}
    sides = [2 * e_at[eid] + (d == "-") for s in X.squares.values() for eid, d in s.boundary]
    return Cells(
        X.params, list(X.vertices), [v.height for v in vs], list(X.edges),
        array("l", [v_at[x] for e in es for x in (e.head, e.tail)]),
        [e.type for e in es], list(X.squares), array("l", sides),
    )


def indexed(X: SquareComplex) -> ComplexIndex:
    """The program's view of a record complex, once ``validate_complex`` here passes it."""
    validate_complex(X)
    return complex_model.validate_complex(columns(X))


def complex_to_json(X: SquareComplex) -> str:
    """The document of a record complex, laid out by ``json.dumps(indent=2)``.

    Records carry their unknown fields in sorted order; the extra
    top-level keys follow the sections in sorted order, and one named
    like a section replaces it in place.
    """
    doc = {
        "params": {"m": X.params.m, "k": X.params.k} if X.params is not None else None,
        "vertices": [
            {"id": v.id, "height": v.height, **dict(sorted(v.extra.items()))}
            for v in X.vertices.values()
        ],
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "type": e.type,
             **dict(sorted(e.extra.items()))}
            for e in X.edges.values()
        ],
        "squares": [
            {"id": s.id, "boundary": [{"edge": eid, "dir": d} for eid, d in s.boundary],
             **dict(sorted(s.extra.items()))}
            for s in X.squares.values()
        ],
    }
    for key in sorted(X.extra):
        doc[key] = X.extra[key]
    return json.dumps(doc, indent=2) + "\n"


def parse_edge_ids(X: SquareComplex, eids: Iterable[str]) -> dict[str, EdgeRef]:
    """Refs of built edges, read back from their ids ``e/<height>/<type>/<exps>``.

    Raises ``ValueError`` naming the id when it does not parse, is not
    written as the builder writes it, has a type or exponents out of
    range for ``X.params``, or is not a stored edge with that type and
    its head at that height.
    """
    params = X.params
    if params is None:
        raise ValueError("edge ids name refs only in a built complex; params is null")
    m, k = params.m, params.k
    refs: dict[str, EdgeRef] = {}
    for eid in eids:
        parts = eid.split("/")
        try:
            height, type_j = int(parts[1]), int(parts[2])
            exps = tuple(map(int, parts[3].split(",")))
        except (IndexError, ValueError):
            raise ValueError(f"edge id {eid!r}: expected e/<height>/<type>/<exps>") from None
        if eid != f"e/{height}/{type_j}/{','.join(map(str, exps))}":
            raise ValueError(f"edge id {eid!r}: not written as the builder writes ids")
        if not 1 <= type_j <= m or len(exps) != m or not all(0 <= x < k for x in exps):
            raise ValueError(f"edge id {eid!r}: type or exponents out of range for {params}")
        edge = X.edges.get(eid)
        if edge is None or edge.type != type_j or X.vertices[edge.head].height != height:
            raise ValueError(f"edge id {eid!r}: no stored edge of that type and head height")
        refs[eid] = EdgeRef(height, type_j, Elem(params, exps))
    return refs


def vertex_stabilizer(params: GroupParams, i: int) -> Subgroup:
    """Stabiliser of a height-i vertex: generated by the constant vector i."""
    return subgroup_cyclic(constant(params, i))


def _exps_str(e: Elem) -> str:
    return ",".join(str(x) for x in e.exps)


def vertex_id(ref: VertexRef) -> str:
    return f"v/{ref.height}/{_exps_str(ref.coeff)}"


def edge_id(ref: EdgeRef) -> str:
    return f"e/{ref.height}/{ref.type_j}/{_exps_str(ref.coeff)}"


def square_id(ref: SquareRef) -> str:
    return f"s/{ref.height}/{ref.type_j}/{_exps_str(ref.coeff)}"


def built_square_refs(X: SquareComplex) -> dict[str, SquareRef]:
    """Square refs of a built complex, read off each square's top-left side.

    ``square_boundary(SquareRef(i, j, g))`` puts ``EdgeRef(i + 1, j, g)``
    at position 2 for every type j, the wrapping type m included.  Each
    ref is checked against its square's id.
    """
    edge_refs = parse_edge_ids(X, X.edges)
    out = {}
    for sid, square in X.squares.items():
        top_left = edge_refs[square.boundary[2][0]]
        ref = SquareRef(top_left.height - 1, top_left.type_j, top_left.coeff)
        assert square_id(ref) == sid, (sid, ref)
        out[sid] = ref
    return out


def revalidate_osculation(X: SquareComplex, e: str, f: str, v: str) -> bool:
    """Re-run the osculation definition from scratch on one witness."""
    if e == f or e not in X.edges or f not in X.edges or v not in X.vertices:
        return False
    ee, ef = X.edges[e], X.edges[f]
    if v not in (ee.tail, ee.head) or v not in (ef.tail, ef.head):
        return False
    for s in X.squares.values():
        b = s.boundary
        for n in range(4):
            pair = {b[n][0], b[(n + 1) % 4][0]}
            if pair == {e, f}:
                return False
    return True


def revalidate_crossing(
    X: SquareComplex, H: HyperplanePartition, c1: str, c2: str, square: str
) -> bool:
    sides = X.squares[square].boundary
    got = {H.class_of[sides[0][0]], H.class_of[sides[1][0]]}
    return got == {c1, c2}


def revalidate_one_sided(X: SquareComplex, cls: str) -> bool:
    fresh = compute_hyperplanes(X)
    return cls in fresh.one_sided


# ---------------------------------------------------------------------------
# the id-keyed kernels


def incident_edges(X: SquareComplex) -> dict[str, list[str]]:
    """Vertex id to sorted list of distinct incident edge ids."""
    out: dict[str, set[str]] = {v: set() for v in X.vertices}
    for e in X.edges.values():
        out[e.tail].add(e.id)
        out[e.head].add(e.id)
    return {v: sorted(es) for v, es in out.items()}


def edge_top_height(X: SquareComplex, eid: str) -> int:
    e = X.edges[eid]
    heights = [X.vertices[e.tail].height, X.vertices[e.head].height]
    if any(h is None for h in heights):
        raise ValueError(f"edge {eid}: missing height metadata on endpoints")
    return max(heights)


def _side_endpoints(X: SquareComplex, side: tuple[str, str]) -> tuple[str, str]:
    """(start, end) of a boundary side when traversed along the cycle."""
    e = X.edges[side[0]]
    return (e.tail, e.head) if side[1] == "+" else (e.head, e.tail)


def validate_complex(X: SquareComplex) -> None:
    for e in X.edges.values():
        for endpoint in (e.tail, e.head):
            if endpoint not in X.vertices:
                raise ComplexFormatError(
                    f"edges[{e.id!r}]: unknown vertex {endpoint!r}"
                )
    for s in X.squares.values():
        if len(s.boundary) != 4:
            raise ComplexFormatError(
                f"squares[{s.id!r}].boundary: expected 4 sides, got {len(s.boundary)}"
            )
        for n, (eid, d) in enumerate(s.boundary):
            if eid not in X.edges:
                raise ComplexFormatError(
                    f"squares[{s.id!r}].boundary[{n}].edge: unknown edge {eid!r}"
                )
            if d not in ("+", "-"):
                raise ComplexFormatError(
                    f"squares[{s.id!r}].boundary[{n}].dir: expected '+' or '-', got {d!r}"
                )
        ends = [_side_endpoints(X, side) for side in s.boundary]
        for n in range(4):
            here, there = ends[n][1], ends[(n + 1) % 4][0]
            if here != there:
                raise ComplexFormatError(
                    f"squares[{s.id!r}].boundary: walk does not close "
                    f"(side {n} ends at {here!r}, side {(n + 1) % 4} starts at {there!r})"
                )



LinkNode = tuple[str, str]  # (edge id, "tail" | "head"): the end at the vertex
LinkCorner = tuple[LinkNode, LinkNode, str, int]  # (in end, out end, square, corner)


def link_corners(X: SquareComplex) -> dict[str, list[LinkCorner]]:
    """Square corners of every vertex link, in one pass over the squares.

    The link of v has the edge ends at v as nodes and one adjacency per
    square corner at v, joining the end of the side that enters the
    corner to the end of the side that leaves it.  Corners are listed in
    sorted square order, then by corner position.
    """
    corners: dict[str, list[LinkCorner]] = {v: [] for v in X.vertices}
    for sid in sorted(X.squares):
        b = X.squares[sid].boundary
        for n in range(4):
            (e_in, d_in), (e_out, d_out) = b[n], b[(n + 1) % 4]
            node_in = (e_in, "head" if d_in == "+" else "tail")
            node_out = (e_out, "tail" if d_out == "+" else "head")
            shared = _side_endpoints(X, b[n])[1]
            corners[shared].append((node_in, node_out, sid, n))
    return corners


def check_npc(X: SquareComplex) -> NpcReport:
    """Nonpositive curvature: every vertex link simple with girth >= 4.

    Failures are reported, never raised: self-adjacencies, repeated
    adjacencies between the same two ends, and link triangles.
    """
    failures: list[dict] = []
    corners_by_vertex = link_corners(X)
    for v in sorted(X.vertices):
        seen: dict[tuple[LinkNode, LinkNode], str] = {}
        neighbours: dict[LinkNode, set[LinkNode]] = {}
        for na, nb, sid, _ in corners_by_vertex[v]:
            if na == nb:
                failures.append(
                    {
                        "kind": "self_adjacency",
                        "vertex": v,
                        "node": list(na),
                        "square": sid,
                    }
                )
                continue
            key = tuple(sorted((na, nb)))
            if key in seen:
                failures.append(
                    {
                        "kind": "double_adjacency",
                        "vertex": v,
                        "nodes": [list(na), list(nb)],
                        "squares": sorted({seen[key], sid}),
                    }
                )
            else:
                seen[key] = sid
            neighbours.setdefault(na, set()).add(nb)
            neighbours.setdefault(nb, set()).add(na)
        for na in sorted(neighbours):
            for nb in sorted(neighbours[na]):
                if nb <= na:
                    continue
                common = neighbours[na] & neighbours[nb]
                for nc in sorted(common):
                    if nc > nb:
                        failures.append(
                            {
                                "kind": "triangle",
                                "vertex": v,
                                "nodes": [list(na), list(nb), list(nc)],
                            }
                        )
    return NpcReport(not failures, failures)



@dataclass
class HyperplanePartition:
    class_of: dict[str, str]  # edge id -> class id (lex-least member edge)
    parity: dict[str, int]  # edge id -> orientation bit relative to class rep
    one_sided: frozenset[str]
    classes: dict[str, tuple[str, ...]]  # class id -> sorted members
    one_sided_witness: dict[str, tuple[str, str, str]]  # class -> (e, f, square)

    @property
    def n_classes(self) -> int:
        return len(self.classes)


class _UnionFind:
    """Union-find over edge ids carrying parity bits to the parent."""

    def __init__(self, items: Iterable[str]):
        self.parent = {x: x for x in items}
        self.par = {x: 0 for x in items}
        self.rank = {x: 0 for x in items}
        self.conflicts: dict[str, tuple[str, str, str]] = {}

    def find(self, x: str) -> tuple[str, int]:
        chain = []
        p = 0
        while self.parent[x] != x:
            chain.append((x, p))
            p ^= self.par[x]
            x = self.parent[x]
        root, root_p = x, p
        for node, seen in chain:
            self.parent[node] = root
            self.par[node] = root_p ^ seen
        return root, root_p

    def union(self, a: str, b: str, parity: int, witness: str) -> None:
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            if pa ^ pb != parity and ra not in self.conflicts:
                self.conflicts[ra] = (a, b, witness)
            return
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
            pa, pb = pb, pa
        self.parent[rb] = ra
        self.par[rb] = pa ^ pb ^ parity
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        if rb in self.conflicts:
            self.conflicts.setdefault(ra, self.conflicts.pop(rb))


def compute_hyperplanes(X: SquareComplex) -> HyperplanePartition:
    """Union-find closure of elementary parallelism with orientation parity.

    Opposite sides are boundary positions (0, 2) and (1, 3); a pair
    traversed with equal direction flags unites at parity 1.  Processing
    order is sorted, so the result is deterministic, and the class id is
    the lexicographically least member edge.
    """
    uf = _UnionFind(sorted(X.edges))
    for sid in sorted(X.squares):
        sides = X.squares[sid].boundary
        for i, j in ((0, 2), (1, 3)):
            (e1, d1), (e2, d2) = sides[i], sides[j]
            uf.union(e1, e2, 1 if d1 == d2 else 0, sid)
    groups: dict[str, list[str]] = {}
    parity_to_root: dict[str, int] = {}
    for e in X.edges:
        root, p = uf.find(e)
        groups.setdefault(root, []).append(e)
        parity_to_root[e] = p
    class_of: dict[str, str] = {}
    parity: dict[str, int] = {}
    classes: dict[str, tuple[str, ...]] = {}
    one_sided = set()
    witnesses: dict[str, tuple[str, str, str]] = {}
    for root, members in groups.items():
        members.sort()
        rep = members[0]
        classes[rep] = tuple(members)
        for e in members:
            class_of[e] = rep
            parity[e] = parity_to_root[e] ^ parity_to_root[rep]
        if root in uf.conflicts:
            one_sided.add(rep)
            witnesses[rep] = uf.conflicts[root]
    return HyperplanePartition(
        class_of, parity, frozenset(one_sided), classes, witnesses
    )


def square_corner_pairs(X: SquareComplex) -> set[tuple[str, str]]:
    """Unordered edge pairs adjacent at some square corner, by edge id."""
    pairs = set()
    for s in X.squares.values():
        b = s.boundary
        for n in range(4):
            e1, e2 = b[n][0], b[(n + 1) % 4][0]
            if e1 != e2:
                pairs.add((e1, e2) if e1 <= e2 else (e2, e1))
    return pairs


def _bigon_lower_ends(X: SquareComplex) -> dict[tuple[str, str], str]:
    """Lower shared vertex of each pair of distinct edges with the same ends.

    Only such a pair can osculate at two vertices.  The corner exemption
    and core membership do not depend on the vertex, so the pair
    osculates at both of its ends or at neither.  Keys are (e, f) with
    e < f, as ``iter_osculations`` yields them; "lower" is in the sorted
    vertex order of its walk.
    """
    by_ends: dict[tuple[str, str], list[str]] = {}
    for e in X.edges.values():
        if e.tail != e.head:
            ends = (e.tail, e.head) if e.tail < e.head else (e.head, e.tail)
            by_ends.setdefault(ends, []).append(e.id)
    lower: dict[tuple[str, str], str] = {}
    for ends, edges in by_ends.items():
        edges.sort()
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                lower[edges[i], edges[j]] = ends[0]
    return lower


def iter_osculations(
    X: SquareComplex,
    corner_pairs: Optional[set[tuple[str, str]]] = None,
    core: Optional[frozenset[str]] = None,
) -> Iterator[tuple[str, str, str]]:
    """Yield (edge, edge, shared vertex) for every osculating pair witness.

    Pairs of distinct incident edges osculate unless some square contains
    them as adjacent sides.  With ``core`` given, only pairs with both
    edges in the core are produced.  Deterministic order.
    """
    if corner_pairs is None:
        corner_pairs = square_corner_pairs(X)
    incident = incident_edges(X)
    for v in sorted(X.vertices):
        edges = incident[v]
        if core is not None:
            edges = [e for e in edges if e in core]
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                pair = (edges[i], edges[j])
                if pair not in corner_pairs:
                    yield edges[i], edges[j], v


@dataclass
class InteractionReport:
    crossings: dict[tuple[str, ...], str]  # sorted class tuple -> witness square
    # sorted class tuple -> first witness; named from the program, the tuples ascending
    osculations: dict[tuple[str, ...], tuple[str, str, str]] | list[tuple[str, ...]]
    violations: dict[str, list[dict]]
    bigon_pairs: list[list[str]]
    core: Optional[tuple[int, int]] = None

    def violation_count(self) -> int:
        return sum(len(v) for v in self.violations.values())


def _class_pair(c1: str, c2: str) -> tuple[str, ...]:
    return (c1,) if c1 == c2 else ((c1, c2) if c1 < c2 else (c2, c1))


def interaction_report(
    X: SquareComplex,
    H: HyperplanePartition,
    core: Optional[frozenset[str]] = None,
    core_span: Optional[tuple[int, int]] = None,
) -> InteractionReport:
    """Crossing and osculation relations plus the four violation lists.

    With ``core`` given, only witnesses all of whose cited edges lie in
    the core are considered; parallelism and the adjacency exemption stay
    global.  Violations: per-square equal transverse classes (condition
    1), one-sided classes (2), same-class osculation (3), and class pairs
    that both cross and osculate (4).
    """
    violations: dict[str, list[dict]] = {
        "self_cross": [],
        "one_sided": [],
        "self_osc": [],
        "inter_osc": [],
    }
    crossings: dict[tuple[str, ...], str] = {}
    for sid in sorted(X.squares):
        sides = X.squares[sid].boundary
        if core is not None and any(e not in core for e, _ in sides):
            continue
        c1 = H.class_of[sides[0][0]]
        c2 = H.class_of[sides[1][0]]
        pair = _class_pair(c1, c2)
        crossings.setdefault(pair, sid)
        if c1 == c2:
            violations["self_cross"].append({"class": c1, "square": sid})
    for cls in sorted(H.one_sided):
        e, f, sid = H.one_sided_witness[cls]
        if core is not None and (e not in core or f not in core):
            continue
        violations["one_sided"].append(
            {"class": cls, "edges": sorted({e, f}), "square": sid}
        )
    corner_pairs = square_corner_pairs(X)
    osculations: dict[tuple[str, ...], tuple[str, str, str]] = {}
    bigon_lower = _bigon_lower_ends(X)
    bigons: list[list[str]] = []
    for e, f, v in iter_osculations(X, corner_pairs, core):
        ce, cf = H.class_of[e], H.class_of[f]
        pair = _class_pair(ce, cf)
        osculations.setdefault(pair, (e, f, v))
        lower = bigon_lower.get((e, f))
        if lower is not None and lower != v:
            bigons.append([e, f, lower, v])
        if ce == cf:
            violations["self_osc"].append(
                {"class": ce, "edges": [e, f], "vertex": v}
            )
        elif pair in crossings:
            violations["inter_osc"].append(
                {
                    "classes": list(pair),
                    "square": crossings[pair],
                    "edges": [e, f],
                    "vertex": v,
                }
            )
    return InteractionReport(
        crossings, osculations, violations, bigons, core_span
    )


def core_edges(X: SquareComplex, h_lo: int, h_hi: int) -> frozenset[str]:
    """Edges whose top height lies in [h_lo, h_hi]; needs height metadata."""
    return frozenset(
        e for e in X.edges if h_lo <= edge_top_height(X, e) <= h_hi
    )



# ---------------------------------------------------------------------------
# the program's results, named by id


def _named_pair(ix: ComplexIndex, pair: int) -> tuple[str, ...]:
    return _named_classes(ix, *divmod(pair, len(ix.edge_ids)))


def _named_classes(ix: ComplexIndex, a: int, b: int) -> tuple[str, ...]:
    return (ix.edge_ids[a],) if a == b else (ix.edge_ids[a], ix.edge_ids[b])


def named_partition(ix: ComplexIndex, H: engine.HyperplanePartition) -> HyperplanePartition:
    eids = ix.edge_ids
    classes: dict[str, list[str]] = {}
    for e, c in enumerate(H.rep):
        classes.setdefault(eids[c], []).append(eids[e])
    return HyperplanePartition(
        {eids[e]: eids[c] for e, c in enumerate(H.rep)},
        {eids[e]: p for e, p in enumerate(H.parity)},
        frozenset(eids[c] for c in H.one_sided),
        {c: tuple(members) for c, members in classes.items()},
        {
            eids[c]: (eids[e], eids[f], ix.square_ids[s])
            for c, (e, f, s) in H.one_sided.items()
        },
    )


def named_report(ix: ComplexIndex, report: engine.InteractionReport) -> InteractionReport:
    """The program's report named by id, its osculating class pairs listed ascending from
    its class masks, which must be symmetric."""
    classes, osc = report.classes, report.osculating
    bits = [[w >> j & 1 for j in range(len(classes))] for w in osc]
    assert all(bits[i][j] == bits[j][i] for i in range(len(classes)) for j in range(i))
    return InteractionReport(
        {_named_pair(ix, p): ix.square_ids[s] for p, s in report.crossings.items()},
        [
            _named_classes(ix, classes[i], classes[j])
            for i in range(len(classes))
            for j in range(i, len(classes))
            if bits[i][j]
        ],
        report.violations,
        report.bigon_pairs,
        report.core,
    )


def named_core(ix: ComplexIndex, core: engine.Core) -> frozenset[str]:
    return frozenset(e for e, inside in zip(ix.edge_ids, core.mask) if inside)


# ---------------------------------------------------------------------------
# cosets and the certificate families on ``Elem``s


@dataclass(frozen=True)
class Coset:
    """Coset rep * sub with rep normalised to the lex-smallest member.

    Build instances through :func:`coset` so that equality of cosets is
    plain field equality of the canonical representative.
    """

    rep: Elem
    sub: Subgroup

    @property
    def params(self) -> GroupParams:
        return self.rep.params

    def __contains__(self, e: Elem) -> bool:
        return e * self.rep.inverse() in self.sub

    def elements(self) -> frozenset[Elem]:
        return frozenset(self.rep * s for s in self.sub.elements)

    def to_json(self) -> dict:
        return {
            "rep": list(self.rep.exps),
            "subgroup_generator": list(self.sub.generator.exps),
        }


def _member_exps(rep: Elem, sub: Subgroup) -> list[tuple[int, ...]]:
    """Exponent tuples of rep * s over the subgroup, made without ``Elem``s."""
    k = rep.params.k
    return [tuple((a + b) % k for a, b in zip(rep.exps, s.exps)) for s in sub.elements]


def coset(rep: Elem, sub: Subgroup) -> Coset:
    if rep.params != sub.params:
        raise ParameterMismatchError(f"parameter mismatch: {rep.params} vs {sub.params}")
    return Coset(Elem(rep.params, min(_member_exps(rep, sub))), sub)


def coset_intersection(c1: Coset, c2: Coset) -> frozenset[Elem]:
    """Exact intersection of two cosets, enumerated as exponent tuples."""
    if c1.params != c2.params:
        raise ParameterMismatchError(f"parameter mismatch: {c1.params} vs {c2.params}")
    small, large = (c1, c2) if len(c1.sub) <= len(c2.sub) else (c2, c1)
    inside = set(_member_exps(large.rep, large.sub))
    return frozenset(
        Elem(c1.params, e) for e in _member_exps(small.rep, small.sub) if e in inside
    )


def separates(chi: Character, pairs: Sequence[tuple[Coset, Coset]]) -> bool:
    """True when chi certifies every coset pair disjoint.

    The character must take exponent 0 on both subgroups of a pair and
    different values on its two representatives; then no element can lie
    in both cosets.
    """
    for left, right in pairs:
        if chi(left.sub.generator) != 0 or chi(right.sub.generator) != 0:
            return False
        if chi(left.rep) == chi(right.rep):
            return False
    return True


def all_characters(params: GroupParams) -> Iterator[Character]:
    """All k^m characters in lexicographic order of their dual vectors."""
    for dual in itertools.product(range(params.k), repeat=params.m):
        yield Character(params, dual)


def find_separating_character(
    left: Elem, right: Elem, pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> Optional[Character]:
    """First character (lex order on duals) that separates a whole family.

    The family is the coset pairs x * <left> and y * <right>, one for each
    pair (x, y) of exponent tuples.  A character separates it when it takes
    exponent 0 on both generators, so it is constant on every coset, and
    different values on x and y of every pair; then no element lies in
    both cosets of any pair.  Returning a character proves every
    intersection empty; None means no single character certifies them
    all, which for one pair of cosets of one subgroup happens exactly when
    they meet.
    """
    if not pairs:
        raise ValueError("need at least one coset pair")
    k = left.params.k
    ratios = {tuple((a - b) % k for a, b in zip(x, y)) for x, y in pairs}
    for chi in all_characters(left.params):
        if chi(left) == 0 and chi(right) == 0 and all(
            sum(map(mul, chi.dual, r)) % k for r in ratios
        ):
            return chi
    return None


def family_cosets(params: GroupParams, case_id: str, j: int, t: tuple) -> tuple[Coset, Coset]:
    """The two cosets of one quantified tuple of a certificate family.

    ``t`` is (a, c) for the self-osculation families and (a, b, c) for
    the inter-osculation ones, as in the certificate's witnesses.  Each
    coset is restated from its ``left`` or ``right`` description with
    ``Elem`` arithmetic; ``Stab(j)`` is ``<u(j-1)u(j)>``.
    """
    def stab(i: int) -> Subgroup:
        return edge_type_stabilizer(params, params.type_index(i))

    def d(i: int) -> Elem:
        return constant(params, i)

    def u(i: int) -> Elem:
        return unit(params, i)

    one = identity(params)
    trivial = subgroup_cyclic(one)
    if case_id.startswith("selfosc"):
        a, c = t
        return {
            "selfosc_b_eq_a_minus_1": (
                coset(d(a - 1) ** c * prefix(params, j - 1), trivial),
                coset(prefix(params, j), stab(j)),
            ),
            "selfosc_b_eq_a_plus_1": (
                coset(d(a) ** c * prefix(params, j - 1).inverse(), trivial),
                coset(prefix(params, j).inverse(), stab(j)),
            ),
            "selfosc_b_eq_a_at_a": (coset(d(a) ** c, trivial), coset(one, stab(j))),
            "selfosc_b_eq_a_at_a_minus_1": (coset(d(a - 1) ** c, trivial), coset(one, stab(j))),
        }[case_id]
    a, b, c = t
    twist = d(b) ** c
    if j < params.m:
        return {
            "interosc_1_1": (coset(one, stab(j)), coset(twist * u(j + 1) ** (b - a), stab(j + 1))),
            "interosc_1_2": (
                coset(u(j), stab(j)),
                coset(twist * u(j + 1) ** (b - a + 1), stab(j + 1)),
            ),
            "interosc_1_3": (coset(twist * u(j), stab(j)), coset(u(j + 1) ** (b - a), stab(j + 1))),
            "interosc_1_4": (coset(twist * u(j + 1) ** (b - a + 1), stab(j + 1)), coset(one, stab(j))),
        }[case_id]
    return {
        "interosc_2_1": (coset(u(1) ** (b - a), stab(1)), coset(twist, stab(j))),
        "interosc_2_2": (coset(twist * u(j), stab(j)), coset(u(1) ** (b - a + 1), stab(1))),
        "interosc_2_3": (coset(u(1) ** (b - a + 1), stab(1)), coset(twist, stab(j))),
        "interosc_2_4": (coset(twist * u(j), stab(j)), coset(u(1) ** (b - a), stab(1))),
    }[case_id]


# ---------------------------------------------------------------------------
# climb cosets and the osculation classifier on ``Elem``s


def climb_coset(params: GroupParams, j: int, coeff: Elem, height: int) -> Coset:
    """Climb coset coeff * P(j)^height * Stab(j), with P(j) = prefix(j).

    It keys the hyperplane of the type-j edge with coefficient ``coeff``
    and head at ``height``: moving an edge up one layer through a square
    multiplies its coefficient by P(j)^-1 modulo Stab(j), so parallel
    edges share the coset.  With the identity coefficient and height
    a - b it is the coset reached by moving a type-j edge from height a
    to b; only the height mod k matters.
    """
    stab = edge_type_stabilizer(params, j)
    return coset(coeff * prefix(params, j) ** height, stab)


def _discrete_log(params: GroupParams, base_height: int, r: Elem) -> Optional[int]:
    """Exponent c with d(base_height)^c = r, else None."""
    d = constant(params, base_height)
    cur = identity(params)
    for c in range(params.k):
        if cur == r:
            return c
        cur = cur * d
    return None


def classify_osculation(
    X: SquareComplex, refs: dict[str, EdgeRef], e: str, f: str, v: str
) -> dict:
    """Map an osculation witness onto an enumerated configuration.

    ``refs`` holds the refs of both edges, as ``parse_edge_ids`` reads
    them off the ids of the built complex ``X``.  Returns a dict with a
    ``case_id`` (or ``benign_nonadjacent``) and the residues recovered
    from the two coefficients, or ``unmatched`` with a reason when the
    witness fits no configuration.
    """
    params = X.params
    k, m = params.k, params.m
    re_, rf = refs[e], refs[f]
    ee, ef = X.edges[e], X.edges[f]
    e_end = "tail" if ee.tail == v else "head"
    f_end = "tail" if ef.tail == v else "head"

    def fail(reason):
        return {"case_id": "unmatched", "reason": reason, "edges": [e, f], "vertex": v}

    if re_.type_j == rf.type_j:
        j = re_.type_j
        if rf.height == re_.height - 1:
            a = re_.height
            r = rf.coeff * (re_.coeff * prefix(params, j - 1)).inverse()
            c = _discrete_log(params, a - 1, r)
            if c is None:
                return fail("same-type height-drop pair off the stabiliser coset")
            return {"case_id": "selfosc_b_eq_a_minus_1", "j": j, "a": a % k, "c": c}
        if rf.height == re_.height + 1:
            a = re_.height
            r = rf.coeff * (re_.coeff * prefix(params, j - 1).inverse()).inverse()
            c = _discrete_log(params, a, r)
            if c is None:
                return fail("same-type height-rise pair off the stabiliser coset")
            return {"case_id": "selfosc_b_eq_a_plus_1", "j": j, "a": a % k, "c": c}
        if rf.height == re_.height:
            a = re_.height
            r = rf.coeff * re_.coeff.inverse()
            if e_end == "head" and f_end == "head":
                c = _discrete_log(params, a, r)
                if c is None or c % k == 0 or a % k == 0:
                    return fail("level same-type pair with trivial or missing twist")
                return {"case_id": "selfosc_b_eq_a_at_a", "j": j, "a": a % k, "c": c}
            if e_end == "tail" and f_end == "tail":
                c = _discrete_log(params, a - 1, r)
                if c is None or c % k == 0 or (a - 1) % k == 0:
                    return fail("level same-type pair with trivial or missing twist")
                return {
                    "case_id": "selfosc_b_eq_a_at_a_minus_1",
                    "j": j,
                    "a": a % k,
                    "c": c,
                }
            return fail("level same-type pair with mixed ends")
        return fail("same-type pair at height gap > 1")

    if params.type_index(rf.type_j - 1) == re_.type_j:
        pass  # e carries the lower type already
    elif params.type_index(re_.type_j - 1) == rf.type_j:
        re_, rf = rf, re_
        e_end, f_end = f_end, e_end
    else:
        return {
            "case_id": "benign_nonadjacent",
            "types": sorted((re_.type_j, rf.type_j)),
        }
    j = re_.type_j
    case_family = 1 if j < m else 2
    g, g2 = re_.coeff, rf.coeff

    def solved(sub, b, c):
        if c is None:
            return fail(f"adjacent-type corner pair off the stabiliser coset")
        if b % k == 0 or c % k == 0:
            return fail("adjacent-type pair with trivial twist survived exemption")
        return {
            "case_id": f"interosc_{case_family}_{sub}",
            "j": j,
            "b": b % k,
            "c": c % k,
        }

    if e_end == "head" and f_end == "head" and re_.height == rf.height:
        b = re_.height
        if case_family == 1:
            return solved(1, b, _discrete_log(params, b, g2 * g.inverse()))
        # type-1 partner carries d(b) on the square corner itself
        c_shift = _discrete_log(params, b, g2 * g.inverse())
        return solved(1, b, None if c_shift is None else (1 - c_shift) % k)
    if e_end == "tail" and f_end == "tail" and re_.height == rf.height:
        b = re_.height - 1
        if case_family == 1:
            r = g2 * unit(params, j) * g.inverse()
            return solved(2, b, _discrete_log(params, b, r))
        r = g2 * unit(params, m) * (g * constant(params, b + 1)).inverse()
        c_neg = _discrete_log(params, b, r)
        return solved(2, b, None if c_neg is None else (-c_neg) % k)
    if e_end == "tail" and f_end == "head" and re_.height == rf.height + 1:
        b = rf.height
        if case_family == 1:
            r = g * g2.inverse() * prefix(params, j - 1)
            return solved(3, b, _discrete_log(params, b, r))
        r = g2 * unit(params, m) * (g * constant(params, b + 1)).inverse()
        c_neg = _discrete_log(params, b, r)
        return solved(4, b, None if c_neg is None else (-c_neg) % k)
    if e_end == "head" and f_end == "tail" and rf.height == re_.height + 1:
        b = re_.height
        if case_family == 1:
            r = g2 * prefix(params, j) * g.inverse()
            return solved(4, b, _discrete_log(params, b, r))
        c_shift = _discrete_log(params, b, g2 * g.inverse())
        return solved(3, b, None if c_shift is None else (1 - c_shift) % k)
    return fail("adjacent-type pair in an unrecognised relative position")


# ---------------------------------------------------------------------------
# the record-building document loader


_VERTEX_KEYS = {"id", "height"}
_EDGE_KEYS = {"id", "tail", "head", "type"}
_SQUARE_KEYS = {"id", "boundary"}
_TOP_KEYS = {"params", "vertices", "edges", "squares"}


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ComplexFormatError(f"{path}: {message}")


def _opt_int(value, path: str) -> Optional[int]:
    if value is None:
        return None
    _require(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer or null")
    return value


def complex_from_json(doc: dict) -> SquareComplex:
    """Parse a complex document into records; unknown fields are preserved."""
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
    return X


# ---------------------------------------------------------------------------
# integer matrices


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def matrix_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch in matrix product")
    return IntMatrix(
        tuple(
            tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(a.cols)) for j in range(b.cols))
            for i in range(a.rows)
        )
    )


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant requires a square matrix")
    n = a.rows
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if m[t][t] == 0:
            for i in range(t + 1, n):
                if m[i][t] != 0:
                    m[t], m[i] = m[i], m[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                m[i][j] = (m[i][j] * m[t][t] - m[i][t] * m[t][j]) // prev
            m[i][t] = 0
        prev = m[t][t]
    return sign * m[n - 1][n - 1]
