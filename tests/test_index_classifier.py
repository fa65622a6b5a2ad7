"""The osculation classifier and climb keys on coefficient indices.

``classify_osculation`` looks every ratio up in translation tables and
a per-residue discrete-log table.  It must return exactly the dict of
the ``Elem`` classifier in ``reference_impl``:

* on every pair of distinct core edges at a vertex of a built
  truncation, not only on the osculations that a walk yields, since
  square-corner pairs reach the trivial-twist branch;
* on two edges of arbitrary refs and ends at one vertex, which reach the
  off-coset, mixed-end and height-gap branches that no built truncation
  does.

The climb key of every core edge must be the representative of its
``Elem`` climb coset.
"""

import itertools
from functools import lru_cache

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cubespec import verifier
from cubespec.coeff_group import GroupParams
from cubespec.complex_model import (
    Edge,
    SquareComplex,
    Vertex,
    build_quotient_complex,
    parse_edge_ids,
    validate_complex,
)
from cubespec.hyperplane_engine import core_edges
from cubespec.verifier import classify_osculation, core_coefficients

import reference_impl as ref

PAIRS = [(m, k) for m in range(3, 6) for k in range(2, 6)]
SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@lru_cache(maxsize=4)
def truncation(m, k, h_min, layers, margin):
    X = build_quotient_complex(GroupParams(m, k), h_min, h_min + layers)
    ix = validate_complex(X)
    cc = core_coefficients(X, ix, core_edges(ix, h_min + margin, h_min + layers - margin))
    refs = parse_edge_ids(X, [ix.edge_ids[e] for e in cc.edges])
    incident = [[] for _ in ix.vertex_ids]  # core edges at each vertex, ascending
    for e in cc.edges:
        incident[ix.tail[e]].append(e)
        incident[ix.head[e]].append(e)
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
        for e in incident[v]:
            for f in incident[v]:
                if e != f:
                    want = ref.classify_osculation(X, refs, eids[e], eids[f], vids[v])
                    assert classify_osculation(cc, e, f, v) == want, (eids[e], eids[f], vids[v])


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


@given(witnesses())
@settings(max_examples=200, deadline=None)
def test_arbitrary_witness_matches_the_elem_classifier(witness):
    params, ends = witness
    heads = {height for height, _, _, end in ends if end == "head"}
    assume(len(heads) <= 1)
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
    assume(eids[0] != eids[1])
    ix = validate_complex(X)
    heights = ix.height
    cc = core_coefficients(X, ix, core_edges(ix, min(heights), max(heights)))
    refs = parse_edge_ids(X, eids)
    e, f = (ix.edge_ids.index(eid) for eid in eids)
    v = ix.vertex_ids.index("v")
    assert classify_osculation(cc, e, f, v) == ref.classify_osculation(X, refs, *eids, "v")
    assert classify_osculation(cc, f, e, v) == ref.classify_osculation(X, refs, *eids[::-1], "v")


@given(truncations(max_order=256))
@SETTINGS
def test_climb_keys_are_the_elem_climb_coset_reps(params):
    X, ix, cc, refs, _, _ = truncation(*params)
    exps = list(itertools.product(range(X.params.k), repeat=X.params.m))  # by index
    for e, key in zip(cc.edges, verifier._climb_keys(cc)):
        r = refs[ix.edge_ids[e]]
        want = ref.climb_coset(X.params, r.type_j, r.coeff, r.height).rep.exps
        assert exps[key] == want, ix.edge_ids[e]
