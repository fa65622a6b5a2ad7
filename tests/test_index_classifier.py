"""The osculation classifier and climb keys on coefficient indices.

``classify_osculation`` reads a vertex star through per-run tables: the
class and first exponent of each edge end, and the family row of each
pair of types and ends.  Each of its readings must say what the
``Elem`` classifier in ``reference_impl`` says of that witness, in
witness order: the same dict for an unmatched witness, the same types
for a benign one, and the same case, j, residue and c otherwise.  That
holds

* on every ordered pair of distinct core edges at a vertex of a built
  truncation, not only on the osculations that a walk yields, since
  square-corner pairs reach the trivial-twist branch: the star is
  classified with all-zero corner masks, in both orders, and at every
  vertex of one composite-k truncation, where each row of the family
  table is reached;
* on two edges of arbitrary refs and ends at one vertex, as a two-edge
  star in both orders, which reach the off-coset, mixed-end and
  height-gap branches that no built truncation does, and on same-type
  pairs one height apart on the stabiliser coset whose ends at the
  vertex the heights contradict, which random exponents rarely make.

The climb key of every core edge must be the representative of its
``Elem`` climb coset.
"""

import itertools
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cubespec import verifier
from cubespec.coeff_group import GroupParams, constant, prefix, unit
from cubespec.complex_model import build_quotient_complex
from cubespec.hyperplane_engine import core_edges
from cubespec.verifier import classify_osculation, core_coefficients

import reference_impl as ref
from reference_impl import Edge, SquareComplex, Vertex, indexed, parse_edge_ids, records

PAIRS = [(m, k) for m in range(3, 6) for k in range(2, 6)]
SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


RESIDUE = {row.case_id: "a" if row.wraps is None else "b" for row in verifier.FAMILIES}


def as_dicts(cc, readings) -> list[dict]:
    """``classify_osculation``'s readings in the ``Elem`` classifier's form."""
    out = []
    for got in readings:
        if isinstance(got, dict):
            out.append(got)
        elif got[0] == "benign_nonadjacent":
            out.append({"case_id": got[0], "types": sorted(cc.ix.type[e] for e in got[1:])})
        else:
            case_id, j, residue, c = got
            out.append({"case_id": case_id, "j": j, RESIDUE[case_id]: residue, "c": c})
    return out


def every_pair(cc, v, edges) -> list[dict]:
    """The readings of every ordered pair of distinct ``edges`` at v: the
    pairs in list order, then in reverse order, as all-zero corner masks
    make every pair a witness."""
    ones, zeros = [1] * len(edges), [0] * len(edges)
    readings = classify_osculation(cc, v, edges, ones, zeros)
    readings += classify_osculation(cc, v, edges[::-1], ones, zeros)
    return as_dicts(cc, readings)


def elem_pairs(X, refs, eids, v, edges) -> list[dict]:
    """The ``Elem`` classifier on the pairs of ``every_pair``, in its order."""
    pairs = list(itertools.combinations(edges, 2))
    pairs += list(itertools.combinations(edges[::-1], 2))
    return [ref.classify_osculation(X, refs, eids[e], eids[f], v) for e, f in pairs]


@lru_cache(maxsize=4)
def truncation(m, k, h_min, layers, margin):
    X = records(build_quotient_complex(GroupParams(m, k), h_min, h_min + layers))
    ix = indexed(X)
    cc = core_coefficients(ix, core_edges(ix, h_min + margin, h_min + layers - margin))
    refs = parse_edge_ids(X, [ix.edge_ids[e] for e in cc.edges])
    incident = [[] for _ in ix.vertex_ids]  # core edges at each vertex, ascending
    for e in cc.edges:
        incident[ix.ends[2 * e + 1]].append(e)
        incident[ix.ends[2 * e]].append(e)
    core_vertices = [v for v, edges in enumerate(incident) if len(edges) > 1]
    return X, ix, cc, refs, incident, core_vertices


@st.composite
def truncations(draw, max_order=None):
    pairs = [p for p in PAIRS if max_order is None or p[1] ** p[0] <= max_order]
    m, k = draw(st.sampled_from(pairs))
    margin = draw(st.integers(0, 2))
    least = max(2, 2 * margin)  # room for a square layer and a core
    # the largest groups get the thinnest truncations
    layers = least if k**m > 1000 else draw(st.integers(least, least + 2))
    return m, k, draw(st.integers(-k, k)), layers, margin


@given(truncations(), st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=2))
@SETTINGS
def test_every_pair_at_a_core_vertex_matches_the_elem_classifier(params, picks):
    # both orders: the walk meets a pair in id order, which puts the
    # higher edge first only at some heights
    X, ix, cc, refs, incident, core_vertices = truncation(*params)
    eids, vids = ix.edge_ids, ix.vertex_ids
    for pick in picks:
        v = core_vertices[int(pick * len(core_vertices))]
        want = elem_pairs(X, refs, eids, vids[v], incident[v])
        assert len(want) == len(incident[v]) * (len(incident[v]) - 1)
        assert every_pair(cc, v, incident[v]) == want, vids[v]


@st.composite
def witnesses(draw):
    """Two edges of arbitrary refs meeting at vertex "v", each at its head or tail."""
    m, k = draw(st.sampled_from(PAIRS))
    first = draw(st.integers(-2 * k, 2 * k))
    ends = []
    for near in (0, draw(st.integers(-3, 3))):  # the second edge lies near the first
        height = first + near
        type_j = draw(st.integers(1, m))
        exps = tuple(draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
        ends.append((height, type_j, exps, draw(st.sampled_from(["head", "tail"]))))
    if ends[0][3] == ends[1][3] == "head" and draw(st.booleans()):
        ends[1] = (ends[0][0],) + ends[1][1:]  # a shared head fixes one height
    return GroupParams(m, k), ends


def two_edge_readings(params, ends):
    """Both orders of the two-edge star of ``ends`` at vertex "v": the
    readings of ``every_pair`` and what the ``Elem`` classifier says."""
    heads = {height for height, _, _, end in ends if end == "head"}
    X = SquareComplex(params=params)
    X.vertices["v"] = Vertex("v", height=heads.pop() if heads else 0)
    eids = []
    for n, (height, type_j, exps, end) in enumerate(ends):
        eid = f"e/{height}/{type_j}/{','.join(map(str, exps))}"
        other = f"w{n}"
        X.vertices[other] = Vertex(other, height=height if end == "tail" else height - 1)
        tail, head = ("v", other) if end == "tail" else (other, "v")
        X.edges[eid] = Edge(eid, tail, head, type=type_j)
        eids.append(eid)
    ix = indexed(X)
    heights = ix.height
    cc = core_coefficients(ix, core_edges(ix, min(heights), max(heights)))
    refs = parse_edge_ids(X, eids)
    e, f = (ix.edge_ids.index(eid) for eid in eids)
    want = [ref.classify_osculation(X, refs, *eids, "v"), ref.classify_osculation(X, refs, *eids[::-1], "v")]
    return every_pair(cc, ix.vertex_ids.index("v"), [e, f]), want


@given(witnesses())
@settings(max_examples=200, deadline=None)
def test_arbitrary_witness_matches_the_elem_classifier(witness):
    params, ends = witness
    assume(len({height for height, _, _, end in ends if end == "head"}) <= 1)
    assume(ends[0][:3] != ends[1][:3])
    got, want = two_edge_readings(params, ends)
    assert got == want


@pytest.mark.parametrize("m, k", [(3, 4), (4, 3), (5, 2)])
def test_same_type_pair_one_height_apart_reads_its_ends_off_the_heights(m, k):
    # pairs on the stabiliser coset, whose ends at the vertex the heights
    # contradict: e rises to f or drops to it, and its coefficient is
    # d(base)^c times f's taken to the vertex
    params = GroupParams(m, k)
    g = prefix(params, 2) * unit(params, m)
    contradicting = {1: [("tail", "head"), ("tail", "tail")], -1: [("head", "tail"), ("tail", "tail")]}
    for j, a, c, gap in itertools.product(range(1, m + 1), range(k), range(k), (1, -1)):
        base, step = (a, prefix(params, j - 1).inverse()) if gap > 0 else (a - 1, prefix(params, j - 1))
        h = constant(params, base * c) * g * step
        for e_end, f_end in contradicting[gap]:
            star = [(a, j, g.exps, e_end), (a + gap, j, h.exps, f_end)]
            got, want = two_edge_readings(params, star)
            assert want[0]["case_id"] in verifier.SELF_OSC_CASES, want
            assert got == want, (j, a, c, gap, e_end, f_end)


@given(truncations(max_order=256))
@SETTINGS
def test_climb_keys_are_the_elem_climb_coset_reps(params):
    X, ix, cc, refs, _, _ = truncation(*params)
    exps = list(itertools.product(range(X.params.k), repeat=X.params.m))  # by index
    for e, key in zip(cc.edges, verifier._climb_keys(cc)):
        r = refs[ix.edge_ids[e]]
        want = ref.climb_coset(X.params, r.type_j, r.coeff, r.height).rep.exps
        assert exps[key] == want, ix.edge_ids[e]


def test_every_pair_at_every_vertex_of_a_composite_k_truncation_matches_the_elem_classifier():
    # composite k, where the wrap rows and the inverted ratio of
    # ``interosc_1_3`` pick other members of a twist than a negated log;
    # 46,464 ordered pairs reach every row of the family table
    X, ix, cc, refs, incident, _ = truncation(3, 4, -4, 8, 0)
    eids, vids = ix.edge_ids, ix.vertex_ids
    seen, pairs = set(), 0
    for v, edges in enumerate(incident):
        got = every_pair(cc, v, edges)
        assert got == elem_pairs(X, refs, eids, vids[v], edges), vids[v]
        seen.update(reading["case_id"] for reading in got)
        pairs += len(got)
    assert pairs == 46_464
    assert seen == {row.case_id for row in verifier.FAMILIES} | {"unmatched"}
