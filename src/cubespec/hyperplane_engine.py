"""Hyperplanes, sidedness, crossing/osculation relations, specialness report.

Hyperplanes are the equivalence classes of edges under elementary
parallelism (opposite sides of a square).  The closure is a union-find
with an orientation parity bit: uniting two opposite sides traversed in
the same direction along the boundary cycle flips the transverse
orientation, so a class is one-sided exactly when some parallelism cycle
has odd parity.

Osculation is evaluated on pairs of distinct edges sharing a vertex, and
the exempting "adjacent in some square" clause is checked globally over
all squares.  A pair of edges sharing both endpoints is flagged; each
shared vertex counts as an independent witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from cubespec.complex_model import SquareComplex


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


# ---------------------------------------------------------------------------
# interactions


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
    incident = X.incident_edges()
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


# ---------------------------------------------------------------------------
# core edges


def core_edges(X: SquareComplex, h_lo: int, h_hi: int) -> frozenset[str]:
    """Edges whose top height lies in [h_lo, h_hi]; needs height metadata."""
    return frozenset(
        e for e in X.edges if h_lo <= X.edge_top_height(e) <= h_hi
    )


# ---------------------------------------------------------------------------
# serialisation


def report_to_json(H: HyperplanePartition, report: InteractionReport) -> dict:
    doc = {
        "classes": H.n_classes,
        "one_sided": sorted(H.one_sided),
        "violations": {
            key: report.violations[key]
            for key in ("self_cross", "one_sided", "self_osc", "inter_osc")
        },
        "crossing_pairs": len(report.crossings),
        "osculating_pairs": len(report.osculations),
        "bigon_pairs": report.bigon_pairs,
    }
    if report.core is not None:
        doc["core"] = {"h_lo": report.core[0], "h_hi": report.core[1]}
    return doc


def dot_export(report: InteractionReport) -> str:
    """Interaction graph in DOT: solid for crossing, dashed for osculation."""
    lines = ["graph interactions {", "  node [shape=box];"]
    names = sorted(
        {c for pair in report.crossings for c in pair}
        | {c for pair in report.osculations for c in pair}
    )
    for c in names:
        lines.append(f'  "{c}";')
    for pair in sorted(report.crossings):
        a, b = pair[0], pair[-1]
        lines.append(f'  "{a}" -- "{b}" [style=solid];')
    for pair in sorted(report.osculations):
        a, b = pair[0], pair[-1]
        lines.append(f'  "{a}" -- "{b}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
