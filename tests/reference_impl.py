"""Reference implementations that the tests compare the program against.

Each one restates a definition directly, without the program's tables
or shortcuts: cell ids from refs, the vertex stabiliser in closed form,
the square ref of a built square, from-scratch re-checks of single
interaction witnesses, and the incidence validation, curvature check,
parallelism union-find and interaction report keyed by id strings, as they ran before the
program moved to the integer view of a complex.  The climb coset and
the osculation classifier compute with ``Elem`` arithmetic and a k-step
discrete log, as they ran before the program moved to coefficient
indices.  ``named_partition``,
``named_report`` and ``named_core`` turn the program's index-keyed
results into the id-keyed form of these references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from cubespec.coeff_group import (
    Coset,
    Elem,
    GroupParams,
    Subgroup,
    constant,
    coset,
    edge_type_stabilizer,
    identity,
    prefix,
    subgroup_cyclic,
    unit,
)
from cubespec.complex_model import (
    ComplexFormatError,
    ComplexIndex,
    EdgeRef,
    NpcReport,
    SquareComplex,
    SquareRef,
    VertexRef,
    parse_edge_ids,
)
from cubespec import hyperplane_engine as engine


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
    osculations: dict[tuple[str, ...], tuple[str, str, str]]
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
    a, b = divmod(pair, len(ix.edge_ids))
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
    eids, vids = ix.edge_ids, ix.vertex_ids
    return InteractionReport(
        {_named_pair(ix, p): ix.square_ids[s] for p, s in report.crossings.items()},
        {
            _named_pair(ix, p): (eids[e], eids[f], vids[v])
            for p, (e, f, v) in report.osculations.items()
        },
        report.violations,
        report.bigon_pairs,
        report.core,
    )


def named_core(ix: ComplexIndex, core: engine.Core) -> frozenset[str]:
    return frozenset(e for e, inside in zip(ix.edge_ids, core.mask) if inside)


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
