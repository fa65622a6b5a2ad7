"""Hyperplanes, sidedness, crossing/osculation relations, specialness report.

Every kernel runs on the integer view of a complex (``ComplexIndex``),
with cells numbered in sorted-id order, and names cells by id only in
the violations it reports.

Hyperplanes are the equivalence classes of edges under elementary
parallelism (opposite sides of a square).  The closure is a union-find
over edge indices with an orientation parity bit (Tarjan, JACM 1975):
uniting two opposite sides traversed in the same direction along the
boundary cycle flips the transverse orientation, so a class is one-sided
exactly when some parallelism cycle has odd parity.  A class is named by
its least member edge.

Osculation is evaluated on pairs of distinct edges sharing a vertex, and
the exempting "adjacent in some square" clause is read off the one corner
relation of ``link_masks``.  A pair of edges sharing both endpoints is
flagged; each shared vertex counts as an independent witness.  Edge pairs
and class pairs are packed as ``a * E + b`` with a <= b, for E edges.

Each vertex star is decided on bitmasks over the classes; witnesses are
listed only where a star repeats a class or osculates with a crossing one.
The osculation relation is kept as those masks, one per class.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from cubespec.complex_model import ComplexIndex, link_masks


class HyperplanePartition(NamedTuple):
    rep: list[int]  # edge index -> its class, the least member edge
    parity: bytearray  # edge index -> orientation bit relative to its class
    one_sided: dict[int, tuple[int, int, int]]  # class -> (e, f, square), ascending
    n_classes: int


def compute_hyperplanes(ix: ComplexIndex) -> HyperplanePartition:
    """Union-find closure of elementary parallelism with orientation parity.

    Opposite sides are boundary positions (0, 2) and (1, 3); a pair
    traversed with equal direction flags unites at parity 1.  Squares are
    processed in sorted order with union by rank, so the result is
    deterministic.  A one-sided class keeps the first conflicting union
    its root saw, carried over when the root is absorbed.

    Find is written out inline.  In the union loop a node two or more
    steps from its root is walked to the root, for the root and the
    parity to it, and then its path is compressed: every node on it
    points at the root.  Compression changes no root, so no union.  The
    labelling pass after it only walks.
    """
    n = len(ix.edge_ids)
    parent = list(range(n))
    par = bytearray(n)  # parity to the parent
    rank = bytearray(n)
    conflicts: dict[int, tuple[int, int, int]] = {}
    sides = ix.sides
    near, opposite = [0] * (len(sides) // 2), [0] * (len(sides) // 2)
    near[0::2], near[1::2] = sides[0::4], sides[1::4]  # opposite pairs in square order:
    opposite[0::2], opposite[1::2] = sides[2::4], sides[3::4]  # (0, 2), then (1, 3)
    for q, (s1, s2) in enumerate(zip(near, opposite)):
        a, b = s1 >> 1, s2 >> 1
        ra, pa = parent[a], par[a]  # 0 at a root, whose parity is never set
        if parent[ra] != ra:  # two or more steps from its root: walk, then compress
            while parent[ra] != ra:
                pa ^= par[ra]
                ra = parent[ra]
            x, p = a, pa
            while x != ra:
                parent[x], par[x], x, p = ra, p, parent[x], p ^ par[x]
        rb, pb = parent[b], par[b]
        if parent[rb] != rb:
            while parent[rb] != rb:
                pb ^= par[rb]
                rb = parent[rb]
            x, p = b, pb
            while x != rb:
                parent[x], par[x], x, p = rb, p, parent[x], p ^ par[x]
        parity = 1 ^ ((s1 ^ s2) & 1)
        if ra == rb:
            if pa ^ pb != parity and ra not in conflicts:
                conflicts[ra] = (a, b, q >> 1)
            continue
        if rank[ra] < rank[rb]:
            ra, rb = rb, ra
            pa, pb = pb, pa
        parent[rb] = ra
        par[rb] = pa ^ pb ^ parity
        if rank[ra] == rank[rb]:
            rank[ra] += 1
        if rb in conflicts:
            conflicts.setdefault(ra, conflicts.pop(rb))
    rep = [0] * n
    parity_out = bytearray(n)
    least = [-1] * n  # root -> least member
    to_root = bytearray(n)
    n_classes = 0
    for e in range(n):
        root, p = e, 0
        while parent[root] != root:
            p ^= par[root]
            root = parent[root]
        to_root[e] = p
        first = least[root]
        if first < 0:
            least[root] = first = e
            n_classes += 1
        rep[e] = first
        parity_out[e] = p ^ to_root[first]
    one_sided = dict(sorted((least[root], w) for root, w in conflicts.items()))
    return HyperplanePartition(rep, parity_out, one_sided, n_classes)


# ---------------------------------------------------------------------------
# core edges


class Core:
    """Edges whose top height lies in ``span``, as a mask over edge indices.

    Its length is the number of core edges.
    """

    def __init__(self, span: tuple[int, int], mask: bytearray):
        self.span = span
        self.mask = mask
        self.size = mask.count(1)

    def __len__(self) -> int:
        return self.size


def core_edges(ix: ComplexIndex, h_lo: int, h_hi: int) -> Core:
    """Edges whose top height lies in [h_lo, h_hi]; needs height metadata."""
    height = ix.height
    mask = bytearray(len(ix.edge_ids))
    for e, (h, t) in enumerate(zip(*[iter(ix.ends)] * 2)):
        ht, hh = height[t], height[h]
        if ht is None or hh is None:
            raise ValueError(f"edge {ix.edge_ids[e]}: missing height metadata on endpoints")
        if h_lo <= (ht if ht > hh else hh) <= h_hi:
            mask[e] = 1
    return Core((h_lo, h_hi), mask)


# ---------------------------------------------------------------------------
# interactions


def _corners(ix: ComplexIndex, core: Optional[Core]) -> tuple[Callable, list[list[str]]]:
    """``star_masks(v, edges)``, the square corners read per vertex star, and the bigons.

    Each edge of the star at v gets the ``link_masks`` rank bits of its ends there
    (two for a loop) and the bits they meet at a corner: e, f are adjacent in some
    square exactly when what e meets holds a bit of f.  Two distinct core edges with
    the same two ends that meet at a corner at one end are exempted at both; if at
    neither, they are a bigon [e, f, lower, higher], e < f, sorted by (higher, e, f).
    """
    bit, nb = link_masks(ix)
    n_v, ends = len(ix.vertex_ids), ix.ends
    parallel: dict[int, list[int]] = {}  # packed ends -> edges, ascending
    for e, (h, t) in enumerate(zip(*[iter(ends)] * 2)):
        if t != h and (core is None or core.mask[e]):  # the ends packed, lower * n_v + higher
            parallel.setdefault(t * n_v + h if t < h else h * n_v + t, []).append(e)
    twin: dict[int, int] = {}  # edge end -> the bits met at the far end of parallel edges
    found = []
    for packed, edges in parallel.items():
        lower, higher = divmod(packed, n_v)
        at = [2 * e + (ends[2 * e] != lower) for e in edges] if len(edges) > 1 else []
        for i, (e, x) in enumerate(zip(edges, at)):  # x: the end of e at lower
            for f, y in zip(edges[i + 1:], at[i + 1:]):
                if nb[x] & bit[y] or nb[x ^ 1] & bit[y ^ 1]:
                    for a, b in ((x, y), (y, x), (x ^ 1, y ^ 1), (y ^ 1, x ^ 1)):
                        twin[a] = twin.get(a, 0) | bit[b]
                else:
                    found.append((higher, e, f, lower))
    found.sort()
    eids, vids = ix.edge_ids, ix.vertex_ids

    def star_masks(v: int, edges: list[int]) -> tuple[list[int], list[int]]:
        bits, near = [], []
        for e in edges:
            x = 2 * e + (ends[2 * e] != v)  # its head, unless only its tail is at v
            loop = ends[x ^ 1] == v
            bits.append(bit[x] | (bit[x ^ 1] if loop else 0))
            near.append(nb[x] | (nb[x ^ 1] if loop else twin.get(x, 0)))
        return bits, near

    return star_masks, [[eids[e], eids[f], vids[lo], vids[hi]] for hi, e, f, lo in found]


def iter_osculations(
    ix: ComplexIndex, core: Optional[Core] = None
) -> Iterator[tuple[int, list[int]]]:
    """Yield (vertex, its star) for every vertex whose star has two or more edges.

    The star of v is its incident edges, in the core if one is given,
    ascending; a loop is in it once.  Vertices come in ascending order.
    Its osculation witnesses are its pairs e < f that no square has as
    adjacent sides, which ``_star_witnesses`` lists; ``interaction_report``
    decides a star on class masks and lists them only where the masks fail.
    """
    incident: list[list[int]] = [[] for _ in ix.vertex_ids]
    for e, (h, t) in enumerate(zip(*[iter(ix.ends)] * 2)):
        if core is None or core.mask[e]:
            incident[h].append(e)
            if t != h:
                incident[t].append(e)
    for v, edges in enumerate(incident):
        if len(edges) > 1:
            yield v, edges


def _star_witnesses(
    v: int, edges: list[int], bits: list[int], near: list[int]
) -> Iterator[tuple[int, int, int]]:
    """(e, f, v) for each pair e < f of the star at v, ascending, that meets at no corner."""
    for i, (e, met) in enumerate(zip(edges, near)):
        for f, b in zip(edges[i + 1:], bits[i + 1:]):
            if not met & b:
                yield e, f, v


class InteractionReport(NamedTuple):
    crossings: dict[int, int]  # class pair, packed lower * n + higher -> first crossing square
    classes: list[int]  # class ordinal -> its class, ascending
    osculating: list[int]  # class ordinal -> the class ordinals it osculates with: symmetric
    violations: dict[str, list[dict]]
    bigon_pairs: list[list[str]]
    core: Optional[tuple[int, int]] = None

    def violation_count(self) -> int:
        return sum(len(v) for v in self.violations.values())


def interaction_report(
    ix: ComplexIndex,
    H: HyperplanePartition,
    core: Optional[Core] = None,
    corners: Optional[tuple] = None,
) -> InteractionReport:
    """Crossing and osculation relations plus the four violation lists.

    With ``core`` given, only witnesses all of whose cited edges lie in
    the core are considered; parallelism and the adjacency exemption stay
    global.  Violations: per-square equal transverse classes (condition
    1), one-sided classes (2), same-class osculation (3), and class pairs
    that both cross and osculate (4).  ``corners`` is ``_corners(ix, core)``
    when the caller has made it.

    Osculation is decided per vertex on bitmasks over the classes, none of
    them held per edge end.  Where a star holds each class once, each rank
    bit of its star masks names a class, and the star less an edge's class
    and the classes it meets at a square corner is what the edge osculates
    with; if none of that crosses the edge's class, it joins the edge's row
    of ``osculating``.  Other vertices are walked witness by witness.
    """
    n = len(ix.edge_ids)
    eids, vids, sids = ix.edge_ids, ix.vertex_ids, ix.square_ids
    rep = H.rep
    mask = None if core is None else core.mask
    self_cross: list[dict] = []
    one_sided: list[dict] = []
    self_osc: list[dict] = []
    inter_osc: list[dict] = []
    crossings: dict[int, int] = {}
    sides = ix.sides
    for s, (a, b, c, d) in enumerate(zip(*(sides[i::4] for i in range(4)))):
        if mask is not None and not (mask[a >> 1] and mask[b >> 1] and mask[c >> 1] and mask[d >> 1]):
            continue
        c1, c2 = rep[a >> 1], rep[b >> 1]
        crossings.setdefault(c1 * n + c2 if c1 <= c2 else c2 * n + c1, s)
        if c1 == c2:
            self_cross.append({"class": eids[c1], "square": sids[s]})
    for cls, (e, f, s) in H.one_sided.items():
        if mask is not None and not (mask[e] and mask[f]):
            continue
        cited = [eids[x] for x in sorted({e, f})]
        one_sided.append({"class": eids[cls], "edges": cited, "square": sids[s]})
    ordinal: dict[int, int] = {}  # class -> ordinal: a class is its least edge, so they ascend
    o = [ordinal.setdefault(c, len(ordinal)) for c in rep]  # edge -> ordinal of its class
    crossed = [0] * len(ordinal)  # class ordinal -> the classes crossing it
    for pair in crossings:
        c1, c2 = divmod(pair, n)
        crossed[o[c1]] |= 1 << o[c2]
        crossed[o[c2]] |= 1 << o[c1]
    star_masks, bigons = corners or _corners(ix, core)
    seen = [0] * len(ordinal)  # class ordinal -> the classes it osculates with so far
    for v, edges in iter_osculations(ix, core):
        bits, near = star_masks(v, edges)
        classes = [1 << o[e] for e in edges]
        star, ranks = sum(classes), sum(bits)  # as many class bits as edges when the classes differ
        if star.bit_count() == len(edges):  # each rank bit (two for a loop) names one class
            of_rank = {r: c for b, c in zip(bits, classes) for r in (b & -b, b & (b - 1) or b)}
            free = []  # the classes e osculates with at v
            for c, met in zip(classes, near):
                met &= ranks  # the edges of the star that e meets at a corner
                while met:
                    c |= of_rank[met & -met]
                    met &= met - 1
                free.append(star & ~c)
            if not any(w & crossed[o[e]] for e, w in zip(edges, free)):
                for e, w in zip(edges, free):
                    seen[o[e]] |= w
                continue
        for e, f, _ in _star_witnesses(v, edges, bits, near):
            ce, cf = rep[e], rep[f]
            seen[o[e]] |= 1 << o[f]
            seen[o[f]] |= 1 << o[e]
            if ce == cf:
                self_osc.append({"class": eids[ce], "edges": [eids[e], eids[f]], "vertex": vids[v]})
            elif (pair := ce * n + cf if ce <= cf else cf * n + ce) in crossings:
                inter_osc.append(
                    {
                        "classes": [eids[x] for x in divmod(pair, n)],
                        "square": sids[crossings[pair]],
                        "edges": [eids[e], eids[f]],
                        "vertex": vids[v],
                    }
                )
    violations = {
        "self_cross": self_cross,
        "one_sided": one_sided,
        "self_osc": self_osc,
        "inter_osc": inter_osc,
    }
    span = None if core is None else core.span
    return InteractionReport(crossings, list(ordinal), seen, violations, bigons, span)


# ---------------------------------------------------------------------------
# serialisation


def report_to_json(
    ix: ComplexIndex, H: HyperplanePartition, report: InteractionReport
) -> dict:
    doc = {
        "classes": H.n_classes,
        "one_sided": [ix.edge_ids[c] for c in H.one_sided],
        "violations": {
            key: report.violations[key]
            for key in ("self_cross", "one_sided", "self_osc", "inter_osc")
        },
        "crossing_pairs": len(report.crossings),
        "osculating_pairs": sum((w >> i).bit_count() for i, w in enumerate(report.osculating)),
        "bigon_pairs": report.bigon_pairs,
    }
    if report.core is not None:
        doc["core"] = {"h_lo": report.core[0], "h_hi": report.core[1]}
    return doc


def dot_export(ix: ComplexIndex, report: InteractionReport) -> str:
    """Interaction graph in DOT: solid for crossing, dashed for osculation."""
    n, eids = len(ix.edge_ids), ix.edge_ids
    lines = ["graph interactions {", "  node [shape=box];"]
    classes, osc = report.classes, report.osculating
    named = {c for pair in report.crossings for c in divmod(pair, n)}
    for c in sorted(named.union(c for c, w in zip(classes, osc) if w)):
        lines.append(f'  "{eids[c]}";')
    crossing = (divmod(pair, n) for pair in sorted(report.crossings))
    dashed = ((classes[i], classes[i + j]) for i, w in enumerate(osc)  # a <= b, ascending
              for j, bit in enumerate(bin(w >> i)[:1:-1]) if bit == "1")
    for pairs, style in ((crossing, "solid"), (dashed, "dashed")):
        for a, b in pairs:
            lines.append(f'  "{eids[a]}" -- "{eids[b]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
