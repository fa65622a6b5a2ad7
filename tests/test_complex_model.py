import collections
import io
import itertools
import json
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubespec import complex_model
from cubespec.coeff_group import Elem, GroupParams, constant, identity, prefix, unit
from cubespec.complex_model import (
    Cells,
    ComplexFormatError,
    SpanError,
    build_quotient_complex,
    check_npc,
    complex_from_json,
    complex_to_json,
    link_corners,
    link_masks,
    validate_complex,
)
from cubespec.hyperplane_engine import core_edges
from cubespec.incidence import (
    EdgeRef,
    SizeCapError,
    SquareRef,
    canonical_vertex,
    edge_endpoints,
    square_boundary,
)
from cubespec.layout import BATCH
from cubespec.verifier import core_coefficients

from reference_impl import (
    Edge,
    Square,
    SquareComplex,
    Vertex,
    built_square_refs,
    columns,
    edge_id,
    indexed,
    parse_edge_ids,
    records,
    square_id,
    vertex_id,
    vertex_stabilizer,
)
from reference_impl import complex_from_json as record_complex_from_json
from reference_impl import complex_to_json as record_complex_to_json

P42 = GroupParams(4, 2)
P43 = GroupParams(4, 3)


def make_complex(vertices, edges, squares):
    X = SquareComplex()
    for vid, height in vertices:
        X.vertices[vid] = Vertex(vid, height=height)
    for eid, tail, head, etype in edges:
        X.edges[eid] = Edge(eid, tail, head, type=etype)
    for sid, boundary in squares:
        X.squares[sid] = Square(sid, tuple(boundary))
    indexed(X)
    return X


def built(params, h_min, h_max):
    """A build as records, for the tests that look cells up by id."""
    return records(build_quotient_complex(params, h_min, h_max))


def written(cells, stamp=None) -> str:
    """The document text that ``complex_to_json`` writes for ``cells``."""
    out = io.StringIO()
    complex_to_json(cells, out, stamp)
    return out.getvalue()


def named_links(X):
    """``link_corners`` of X by vertex id, each corner named (in node, out
    node, square id, corner), and the sorted distinct edges at each vertex."""
    ix = indexed(X)
    after = ix.next_sides
    corners = {
        ix.vertex_ids[v]: [
            (tuple(ix.node(ix.sides[c])), tuple(ix.node(after[c] ^ 1)), ix.square_ids[c >> 2], c % 4)
            for c in cs
        ]
        for v, cs in enumerate(link_corners(ix))
    }
    incident = {
        v: sorted(e.id for e in X.edges.values() if v in (e.tail, e.head)) for v in X.vertices
    }
    return corners, incident


def half_link(X, corners, incident, v, end):
    """Link of v restricted to the edge ends of one kind ("head" or "tail")."""
    nodes = [(e, end) for e in incident[v] if getattr(X.edges[e], end) == v]
    adjacencies = [(a, b) for a, b, _, _ in corners[v] if a[1] == end and b[1] == end]
    return nodes, adjacencies


def single_cycle(nodes, adjacencies):
    """True when the given link subgraph is one cycle through all nodes."""
    if len(adjacencies) != len(nodes):
        return False
    neigh = {n: set() for n in nodes}
    for a, b in adjacencies:
        neigh[a].add(b)
        neigh[b].add(a)
    if any(len(s) != 2 for s in neigh.values()):
        return False
    seen = set()
    stack = [nodes[0]]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(neigh[n])
    return len(seen) == len(nodes)


class TestCanonicalVertex:
    def test_branching_reduction(self):
        ref = canonical_vertex(Elem(P43, (2, 1, 0, 1)), 1)
        assert ref.coeff.exps == (0, 2, 1, 2)

    def test_non_branching_identity_map(self):
        g = Elem(P43, (2, 1, 0, 1))
        assert canonical_vertex(g, 0).coeff == g
        assert canonical_vertex(g, 3).coeff == g

    def test_stabilizer_member_maps_to_base(self):
        assert canonical_vertex(constant(P43, 2), 2).coeff.is_identity

    def test_identification_matches_stabilizer(self):
        import itertools

        for i in (0, 1, 2, 3):
            for a, b in itertools.product(
                (Elem(P43, e) for e in itertools.product(range(3), repeat=4)),
                repeat=2,
            ):
                same = canonical_vertex(a, i) == canonical_vertex(b, i)
                in_stab = a * b.inverse() in vertex_stabilizer(P43, i)
                assert same == in_stab


class TestSquareBoundary:
    def test_generic_type(self):
        sides = square_boundary(SquareRef(0, 1, identity(P42)))
        (br, dbr), (tr, dtr), (tl, dtl), (bl, dbl) = sides
        assert (dbr, dtr, dtl, dbl) == ("+", "+", "-", "-")
        assert br == EdgeRef(0, 1, unit(P42, 1))
        assert tr == EdgeRef(1, 2, identity(P42))
        assert tl == EdgeRef(1, 1, identity(P42))
        assert bl == EdgeRef(0, 2, identity(P42))

    def test_wrapping_type_picks_up_constant(self):
        sides = square_boundary(SquareRef(0, 4, identity(P42)))
        tr = sides[1][0]
        assert tr.type_j == 1
        assert tr.coeff == constant(P42, 1)

    def test_bottom_corner_coefficient(self):
        # BL and BR share the bottom vertex with coefficient g * beta(j)
        for j in (1, 2, 3):
            g = Elem(P43, (1, 0, 2, 1))
            sides = square_boundary(SquareRef(0, j, g))
            br, bl = sides[0][0], sides[3][0]
            beta = prefix(P43, j - 1) ** 2 * unit(P43, j)
            want = canonical_vertex(g * beta, -1)
            assert edge_endpoints(br)[0] == want
            assert edge_endpoints(bl)[0] == want

    def test_corner_consistency_all_types(self):
        # all four corners agree as canonical vertices, including j = m
        for params in (P42, P43):
            for j in range(1, 5):
                for i in (-1, 0, 1, 2):
                    sides = square_boundary(SquareRef(i, j, unit(params, 2)))
                    ends = [
                        (edge_endpoints(ref), d) for ref, d in sides
                    ]
                    walk = [
                        (e[0], e[1]) if d == "+" else (e[1], e[0])
                        for e, d in ends
                    ]
                    for n in range(4):
                        assert walk[n][1] == walk[(n + 1) % 4][0]

    def test_opposite_sides_share_type(self):
        sides = square_boundary(SquareRef(1, 4, identity(P43)))
        assert sides[0][0].type_j == sides[2][0].type_j == 4
        assert sides[1][0].type_j == sides[3][0].type_j == 1

    def test_invalid_type_index(self):
        with pytest.raises(ValueError):
            square_boundary(SquareRef(0, 5, identity(P42)))


class TestBuilder:
    def test_cell_counts(self):
        cells = build_quotient_complex(P42, -2, 2)
        assert cells.counts() == {"vertices": 64, "edges": 256, "squares": 192}
        heights = {}
        for height in cells.heights:
            heights[height] = heights.get(height, 0) + 1
        assert heights == {-2: 16, -1: 8, 0: 16, 1: 8, 2: 16}

    def test_minimal_span(self):
        X = built(P42, 0, 2)
        assert len(X.squares) == 64
        assert {ref.height for ref in built_square_refs(X).values()} == {1}

    def test_boundaries_close(self):
        validate_complex(build_quotient_complex(P43, -1, 2))

    def test_no_loop_edges_and_unit_steps(self):
        X = built(P43, -1, 2)
        for e in X.edges.values():
            assert X.vertices[e.head].height == X.vertices[e.tail].height + 1

    def test_span_error(self):
        with pytest.raises(SpanError):
            build_quotient_complex(P42, 0, 1)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            build_quotient_complex(GroupParams(10, 5), -2, 2)
        # a lowered cap rejects builds the default would allow
        with pytest.raises(SizeCapError):
            build_quotient_complex(P42, -2, 2, size_cap=8)
        build_quotient_complex(P42, 0, 2, size_cap=16)

    def test_translation_equivariance(self):
        params = GroupParams(3, 2)
        X = built(params, -2, 2)
        h = Elem(params, (1, 0, 1))
        refs = parse_edge_ids(X, X.edges)
        edge_map = {}
        for eid, ref in refs.items():
            shifted = EdgeRef(ref.height, ref.type_j, ref.coeff * h)
            edge_map[eid] = edge_id(shifted)
        assert sorted(edge_map.values()) == sorted(X.edges)
        for eid, ref in refs.items():
            e = X.edges[eid]
            img = X.edges[edge_map[eid]]
            tail_ref = canonical_vertex(
                refs[eid].coeff * h * prefix(params, ref.type_j - 1),
                ref.height - 1,
            )
            assert img.tail == vertex_id(tail_ref)
            assert img.tail == vertex_id(
                canonical_vertex(
                    Elem(
                        params,
                        tuple(
                            (a + b) % 2
                            for a, b in zip(
                                h.exps,
                                _coeff_of_vertex(e.tail, params),
                            )
                        ),
                    ),
                    ref.height - 1,
                )
            )

    def test_height_periodicity(self):
        params = GroupParams(3, 2)
        X = built(params, -1, 2)
        Y = built(params, 1, 4)
        shift = {}
        for eid, ref in parse_edge_ids(X, X.edges).items():
            shift[eid] = edge_id(EdgeRef(ref.height + 2, ref.type_j, ref.coeff))
        assert sorted(shift.values()) == sorted(Y.edges)
        for sid, ref in built_square_refs(X).items():
            other = Y.squares[square_id(SquareRef(ref.height + 2, ref.type_j, ref.coeff))]
            ours = X.squares[sid]
            assert [d for _, d in other.boundary] == [d for _, d in ours.boundary]
            assert [shift[e] for e, _ in ours.boundary] == [
                e for e, _ in other.boundary
            ]

    @pytest.mark.parametrize(
        "m, k, h_min, h_max",
        [(4, 2, -2, 3), (3, 3, -3, 2), (4, 4, -1, 3), (5, 3, 0, 3)],
    )
    def test_cells_match_incidence_rules(self, m, k, h_min, h_max):
        """Cell by cell, the built complex agrees with the per-cell rules."""
        params = GroupParams(m, k)
        X = built(params, h_min, h_max)
        coeffs = [Elem(params, e) for e in itertools.product(range(k), repeat=m)]
        edge_refs = {}
        for i in range(h_min + 1, h_max + 1):
            for j in range(1, m + 1):
                for g in coeffs:
                    edge_refs[edge_id(EdgeRef(i, j, g))] = EdgeRef(i, j, g)
        square_refs = {}
        for i in range(h_min + 1, h_max):
            for j in range(1, m + 1):
                for g in coeffs:
                    square_refs[square_id(SquareRef(i, j, g))] = SquareRef(i, j, g)
        assert list(parse_edge_ids(X, X.edges).items()) == list(edge_refs.items())
        assert list(built_square_refs(X).items()) == list(square_refs.items())
        assert list(X.edges) == list(edge_refs)
        assert list(X.squares) == list(square_refs)
        assert set(X.vertices) == {
            vertex_id(canonical_vertex(g, i))
            for i in range(h_min, h_max + 1)
            for g in coeffs
        }
        for eid, ref in edge_refs.items():
            tail, head = edge_endpoints(ref)
            e = X.edges[eid]
            assert (e.tail, e.head, e.type) == (
                vertex_id(tail),
                vertex_id(head),
                ref.type_j,
            )
        for sid, ref in square_refs.items():
            assert X.squares[sid].boundary == tuple(
                (edge_id(er), d) for er, d in square_boundary(ref)
            )

    def test_composite_k_builds_and_validates(self):
        params = GroupParams(4, 4)
        X = built(params, -1, 2)
        by_height = {}
        for v in X.vertices.values():
            by_height[v.height] = by_height.get(v.height, 0) + 1
        # vertex counts follow the true stabiliser order k / gcd(i, k)
        assert by_height == {-1: 64, 0: 256, 1: 64, 2: 128}


def read_ids(X):
    """What ``core_coefficients`` reads off every edge id of the record complex X."""
    ix = indexed(X)
    heights = [v.height for v in X.vertices.values()]
    cc = core_coefficients(ix, core_edges(ix, min(heights), max(heights)))
    return {
        ix.edge_ids[e]: (ix.height[ix.ends[2 * e]], ix.type[e], cc.coeff[e]) for e in cc.edges
    }


def id_fault(read, *args):
    """The message of the ``ValueError`` that ``read`` raises, or None."""
    try:
        read(*args)
    except ValueError as exc:
        return str(exc)
    return None


def edges_of(params, h_min, h_max):
    """A build as records without its squares: enough for reading edge ids."""
    X = built(params, h_min, h_max)
    X.squares.clear()
    return X


class TestParseEdgeIds:
    """``core_coefficients`` reads each core edge id into (height, type,
    coefficient index) with the checks and messages of the reference
    ``parse_edge_ids``, which makes an ``Elem`` of it; both read in
    sorted-id order here, as the view numbers the edges."""

    @pytest.mark.parametrize(
        "m, k, h_min, h_max",
        [(4, 2, -2, 3), (3, 3, -3, 2), (4, 4, -1, 3), (5, 3, 0, 3)],
    )
    def test_every_built_id_parses_to_its_edge(self, m, k, h_min, h_max):
        X = built(GroupParams(m, k), h_min, h_max)
        refs = parse_edge_ids(X, X.edges)
        assert list(refs) == list(X.edges)
        # every type, the wrapping type m included
        assert {ref.type_j for ref in refs.values()} == set(range(1, m + 1))
        for eid, ref in refs.items():
            e = X.edges[eid]
            tail, head = edge_endpoints(ref)
            assert (vertex_id(tail), vertex_id(head)) == (e.tail, e.head)
            assert ref.type_j == e.type
            assert edge_id(ref) == eid
        index_of = {exps: c for c, exps in enumerate(itertools.product(range(k), repeat=m))}
        assert read_ids(X) == {
            eid: (ref.height, ref.type_j, index_of[ref.coeff.exps])
            for eid, ref in sorted(refs.items())
        }

    @pytest.mark.parametrize(
        "eid, stored_type",
        [
            ("x/1/1/0,0,0,0", 1),  # tag
            ("e/1/1", 1),  # missing part
            ("e/1/1/0,0,0,0/0", 1),  # extra part
            ("e/1/1/0,0,0", 1),  # too few exponents
            ("e/1/1/0,0,0,0,0", 1),  # too many exponents
            ("e/1/1/0,0,0,2", 1),  # exponent >= k
            ("e/1/1/0,-1,0,0", 1),  # negative exponent
            ("e/1/0/0,0,0,0", 0),  # type below 1
            ("e/1/5/0,0,0,0", 5),  # type above m
            ("e/01/1/0,0,0,0", 1),  # leading zero
            ("e/1/1/0,01,0,0", 1),
            ("e/+1/1/0,0,0,0", 1),  # sign
            ("e/1/1/0, 0,0,0", 1),  # space
            ("e/1/x/0,0,0,0", 1),  # not an integer
        ],
    )
    def test_bad_ids_rejected(self, eid, stored_type):
        # stored as an edge with the type it names and its head at height 1,
        # so only the checks on the id itself can reject it
        X = edges_of(P42, -2, 2)
        X.edges[eid] = replace(X.edges["e/1/1/0,0,0,0"], id=eid, type=stored_type)
        want = id_fault(parse_edge_ids, X, sorted(X.edges))
        assert want is not None and repr(eid) in want
        assert id_fault(read_ids, X) == want

    def test_id_disagreeing_with_its_edge_rejected(self):
        X = edges_of(P42, -2, 2)
        eid = "e/1/2/0,1,0,0"
        edge = X.edges[eid]
        assert parse_edge_ids(X, [eid])[eid] == EdgeRef(1, 2, Elem(P42, (0, 1, 0, 0)))
        assert read_ids(X)[eid] == (1, 2, 0b0100)
        above = "e/3/1/0,0,0,0"
        for faulty, wrong in [
            (eid, replace(edge, type=3)),
            (eid, replace(edge, head=X.edges["e/2/2/0,1,0,0"].head)),  # a head one height up
            # a well-formed id above the span, on an edge with its head at the top
            (above, replace(X.edges["e/2/1/0,0,0,0"], id=above)),
        ]:
            X.edges[wrong.id] = wrong
            want = id_fault(parse_edge_ids, X, sorted(X.edges))
            assert want is not None and repr(faulty) in want
            assert id_fault(read_ids, X) == want
            X.edges[eid] = edge
        del X.edges[above]
        # four exponents against params with m = 5
        X.params = GroupParams(5, 2)
        want = id_fault(parse_edge_ids, X, sorted(X.edges))
        assert "out of range for" in want
        assert id_fault(read_ids, X) == want

    def test_hand_made_complex_rejected(self):
        X = make_complex([("v", 0), ("w", 1)], [("e/1/1/0,0,0,0", "v", "w", 1)], [])
        want = id_fault(parse_edge_ids, X, X.edges)
        assert "params" in want
        assert id_fault(read_ids, X) == want


def _coeff_of_vertex(vid, params):
    return tuple(int(x) for x in vid.split("/")[2].split(","))


class TestLinks:
    def test_descending_cycles(self):
        X = built(P42, -2, 2)
        corners, incident = named_links(X)
        for vid, v in X.vertices.items():
            if v.height < 0:  # descending needs squares on the layer below
                continue
            nodes, adjs = half_link(X, corners, incident, vid, "head")
            if v.height % 2 == 0:
                assert single_cycle(nodes, adjs), vid
                assert len(nodes) == 4
            else:
                assert single_cycle(nodes, adjs), vid
                assert len(nodes) == 8

    def test_ascending_cycles(self):
        X = built(P43, -1, 3)
        corners, incident = named_links(X)
        for vid, v in X.vertices.items():
            if not -1 <= v.height <= 1:
                continue
            nodes, adjs = half_link(X, corners, incident, vid, "tail")
            want = 4 if v.height % 3 == 0 else 12
            assert len(nodes) == want
            assert single_cycle(nodes, adjs), vid

    def test_every_corner_joins_ends_at_its_vertex(self):
        X = built(P42, -2, 2)
        corners, _ = named_links(X)
        assert sum(len(cs) for cs in corners.values()) == 4 * len(X.squares)
        for vid, cs in corners.items():
            for (ea, end_a), (eb, end_b), sid, n in cs:
                assert getattr(X.edges[ea], end_a) == vid
                assert getattr(X.edges[eb], end_b) == vid
                b = X.squares[sid].boundary
                assert (ea, eb) == (b[n][0], b[(n + 1) % 4][0])


class TestNpc:
    def test_built_truncation_passes(self):
        assert check_npc(validate_complex(build_quotient_complex(P42, -2, 2))).passed

    def test_double_adjacency_detected(self):
        X = make_complex(
            vertices=[("A", None), ("B", None), ("C", None), ("D", None), ("D2", None)],
            edges=[
                ("a", "A", "B", None),
                ("b", "B", "C", None),
                ("c", "D", "C", None),
                ("d", "A", "D", None),
                ("c2", "D2", "C", None),
                ("d2", "A", "D2", None),
            ],
            squares=[
                ("S1", [("a", "+"), ("b", "+"), ("c", "-"), ("d", "-")]),
                ("S2", [("a", "+"), ("b", "+"), ("c2", "-"), ("d2", "-")]),
            ],
        )
        report = check_npc(indexed(X))
        assert not report.passed
        kinds = {f["kind"] for f in report.failures}
        assert "double_adjacency" in kinds
        doubles = [f for f in report.failures if f["kind"] == "double_adjacency"]
        assert doubles[0]["vertex"] == "B"
        assert doubles[0]["squares"] == ["S1", "S2"]

    def test_link_triangle_detected(self):
        X = make_complex(
            vertices=[(v, None) for v in ["O", "P", "Q", "R", "A1", "A2", "A3"]],
            edges=[
                ("p", "O", "P", None),
                ("q", "O", "Q", None),
                ("r", "O", "R", None),
                ("x1", "P", "A1", None),
                ("x2", "Q", "A1", None),
                ("y1", "Q", "A2", None),
                ("y2", "R", "A2", None),
                ("z1", "R", "A3", None),
                ("z2", "P", "A3", None),
            ],
            squares=[
                ("Sq1", [("p", "+"), ("x1", "+"), ("x2", "-"), ("q", "-")]),
                ("Sq2", [("q", "+"), ("y1", "+"), ("y2", "-"), ("r", "-")]),
                ("Sq3", [("r", "+"), ("z1", "+"), ("z2", "-"), ("p", "-")]),
            ],
        )
        report = check_npc(indexed(X))
        assert not report.passed
        triangles = [f for f in report.failures if f["kind"] == "triangle"]
        assert len(triangles) == 1
        assert triangles[0]["vertex"] == "O"

    @pytest.mark.parametrize("k, total", [(2, 464), (3, 1080), (4, 1664), (5, 3000)])
    def test_m3_build_fails_npc(self, k, total):
        # descending links of length 3 are triangles; honesty outside m >= 4.
        # Inside the span they are the links at heights = 0 mod k, where the
        # vertex stabiliser is trivial: K_{2,2,2}, with its 8 triangles.
        ix = validate_complex(build_quotient_complex(GroupParams(3, k), -8, 8))
        report = check_npc(ix)
        assert not report.passed
        assert len(report.failures) == total
        assert all(f["kind"] == "triangle" for f in report.failures)
        height = dict(zip(ix.vertex_ids, ix.height))
        inner = collections.Counter(
            f["vertex"] for f in report.failures if -8 < height[f["vertex"]] < 8
        )
        assert set(inner.values()) == {8}
        assert set(inner) == {v for v, h in height.items() if -8 < h < 8 and h % k == 0}

    @pytest.mark.parametrize("m, k", [(4, 2), (4, 4), (5, 3)])
    def test_m_at_least_4_build_passes_npc(self, m, k):
        report = check_npc(validate_complex(build_quotient_complex(GroupParams(m, k), -8, 8)))
        assert report == (True, [])

    def test_clean_check_allocates_nothing_per_corner(self):
        # (4,3) +-6 has 14,256 square corners: a list with an int per corner
        # is about 0.5 MB; the clean check streams them and holds no column
        ix = validate_complex(build_quotient_complex(P43, -6, 6))
        link_masks(ix)  # made once per view and kept in it, so left out here
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            report = check_npc(ix)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.passed and peak < 8192, peak


class TestJsonRoundTrip:
    def test_round_trip_built(self):
        X = built(P42, -1, 1)
        text = written(build_quotient_complex(P42, -1, 1))
        assert complex_from_json(io.StringIO(text)) == indexed(X)
        doc = json.loads(text)
        Y = record_complex_from_json(doc)
        assert list(Y.vertices) == list(X.vertices)
        assert list(Y.edges) == list(X.edges)
        assert list(Y.squares) == list(X.squares)
        for eid in X.edges:
            assert (Y.edges[eid].tail, Y.edges[eid].head) == (
                X.edges[eid].tail,
                X.edges[eid].head,
            )
        for sid in X.squares:
            assert Y.squares[sid].boundary == X.squares[sid].boundary
        assert Y.params == X.params

    def test_three_sided_square_rejected(self):
        doc = json.loads(written(build_quotient_complex(P42, 0, 2)))
        doc["squares"][0]["boundary"] = doc["squares"][0]["boundary"][:3]
        with pytest.raises(ComplexFormatError, match="expected 4 sides"):
            complex_from_json(io.StringIO(json.dumps(doc)))

    def test_dangling_reference_rejected(self):
        doc = json.loads(written(build_quotient_complex(P42, 0, 2)))
        doc["edges"][0]["tail"] = "v/9/9"
        with pytest.raises(ComplexFormatError, match="unknown vertex"):
            complex_from_json(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("bad", [4.5, True, "4"])
    def test_non_integer_params_rejected(self, bad):
        doc = json.loads(written(build_quotient_complex(P42, 0, 2)))
        doc["params"]["m"] = bad
        with pytest.raises(ComplexFormatError, match=r"^params: "):
            complex_from_json(io.StringIO(json.dumps(doc)))

    def test_non_closing_boundary_rejected(self):
        doc = {
            "params": None,
            "vertices": [{"id": v, "height": None} for v in "ABCD"] + [
                {"id": "E", "height": None}
            ],
            "edges": [
                {"id": "a", "tail": "A", "head": "B", "type": None},
                {"id": "b", "tail": "B", "head": "C", "type": None},
                {"id": "c", "tail": "D", "head": "C", "type": None},
                {"id": "d", "tail": "E", "head": "D", "type": None},
            ],
            "squares": [
                {
                    "id": "S",
                    "boundary": [
                        {"edge": "a", "dir": "+"},
                        {"edge": "b", "dir": "+"},
                        {"edge": "c", "dir": "-"},
                        {"edge": "d", "dir": "-"},
                    ],
                }
            ],
        }
        with pytest.raises(ComplexFormatError, match="does not close"):
            complex_from_json(io.StringIO(json.dumps(doc)))

    def test_unknown_fields_preserved(self):
        # the program's loader ignores unknown fields; the record loader and
        # writer of the reference keep them
        doc = json.loads(written(build_quotient_complex(P42, 0, 2)))
        want = complex_from_json(io.StringIO(json.dumps(doc)))
        doc["provenance"] = {"note": "hello"}
        doc["vertices"][0]["colour"] = "red"
        assert complex_from_json(io.StringIO(json.dumps(doc))) == want
        X = record_complex_from_json(doc)
        out = json.loads(record_complex_to_json(X))
        assert out["provenance"] == {"note": "hello"}
        assert out["vertices"][0]["colour"] == "red"


# ---------------------------------------------------------------------------
# the template writer against ``json.dumps`` of the records


TRICKY_IDS = ['"', "\\", 'a"b\\c', "\n\t\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud83d", ""]
ids = st.one_of(st.text(max_size=6), st.sampled_from(TRICKY_IDS))
opt_ints = st.one_of(st.none(), st.integers(-10**20, 10**20))
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), ids,
        st.floats(allow_nan=False),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(ids, inner, max_size=3)
    ),
    max_leaves=8,
)


def extras(reserved):
    keys = ids.filter(lambda key: key not in reserved)
    return st.dictionaries(keys, json_values, max_size=2)


@st.composite
def complexes(draw) -> SquareComplex:
    """Valid hand-made complexes: squares on drawn corners, free edges after."""
    X = SquareComplex(params=draw(st.sampled_from([None, P42, GroupParams(3, 5)])))
    for vid in draw(st.lists(ids, max_size=5, unique=True)):
        X.vertices[vid] = Vertex(vid, draw(opt_ints), draw(extras({"id", "height"})))
    eids = draw(st.lists(ids, max_size=13, unique=True)) if X.vertices else []
    n_squares = draw(st.integers(0, len(eids) // 4))
    corners = st.sampled_from(sorted(X.vertices)) if X.vertices else st.nothing()
    edge_extras = extras({"id", "tail", "head", "type"})
    for sid in draw(st.lists(ids, min_size=n_squares, max_size=n_squares, unique=True)):
        ps = [draw(corners) for _ in range(4)]
        boundary = []
        for n in range(4):
            eid, d = eids.pop(), draw(st.sampled_from("+-"))
            a, b = ps[n], ps[(n + 1) % 4]
            tail, head = (a, b) if d == "+" else (b, a)
            X.edges[eid] = Edge(eid, tail, head, draw(opt_ints), draw(edge_extras))
            boundary.append((eid, d))
        X.squares[sid] = Square(sid, tuple(boundary), draw(extras({"id", "boundary"})))
    for eid in eids:
        tail, head = draw(corners), draw(corners)
        X.edges[eid] = Edge(eid, tail, head, draw(opt_ints), draw(edge_extras))
    X.extra = draw(extras({"params", "vertices", "edges", "squares"}))
    return X


ints = st.integers(-10**20, 10**20)


@st.composite
def plain_complexes(draw) -> SquareComplex:
    """Hand-made complexes with what a build has: an int height on every
    vertex and an int type on every edge, and no unknown fields."""
    X = draw(complexes())
    for cell in [*X.vertices.values(), *X.edges.values(), *X.squares.values()]:
        cell.extra = {}
    for v in X.vertices.values():
        v.height = draw(ints)
    for e in X.edges.values():
        e.type = draw(ints)
    X.extra = {}
    return X


class TestWriter:
    @given(plain_complexes())
    @settings(max_examples=150, deadline=None)
    def test_text_equals_old_dump_and_round_trips(self, X):
        cells = columns(X)
        text = written(cells)
        assert text == record_complex_to_json(X)
        assert complex_model._read_columns(io.StringIO(text)) == cells
        assert complex_from_json(io.StringIO(text)) == validate_complex(cells)

    def test_empty_complex(self):
        cells = Cells(None, [], [], [], [], [], [], [])
        assert written(cells) == record_complex_to_json(SquareComplex())
        assert '"vertices": []' in written(cells)

    def test_stamp_member(self):
        # the stamp is the one member after the sections, laid out by json.dumps
        X = make_complex([("a", 0), ("b", 1)], [("e", "a", "b", 1)], [])
        stamp = {"tool": "t", "z": [1, {"y": None}], "created": "\u00e9"}
        text = written(columns(X), stamp)
        X.extra = {"stamp": stamp}
        assert text == record_complex_to_json(X)

    def test_stream_gets_the_stamp(self):
        X = make_complex([("a", 0), ("b", 1)], [("e", "a", "b", 1)], [])
        text = written(columns(X), {"tool": "t"})
        X.extra = {"stamp": {"tool": "t"}}
        assert text == record_complex_to_json(X)
        assert text.endswith('  "stamp": {\n    "tool": "t"\n  }\n}\n')

    @pytest.mark.parametrize("m, k, h_min, h_max", [(4, 2, -2, 2), (3, 3, 0, 2), (4, 3, -4, 4)])
    def test_stream_writes_a_build_in_pieces(self, m, k, h_min, h_max):
        cells = build_quotient_complex(GroupParams(m, k), h_min, h_max)
        stamp = {"tool": "t"}
        chunks = []

        class Recorder(io.StringIO):
            def write(self, chunk):
                chunks.append(chunk)
                return super().write(chunk)

        out = Recorder()
        assert complex_to_json(cells, out, stamp) is None
        text = out.getvalue()
        X = records(cells)
        X.extra = {"stamp": stamp}
        assert text == record_complex_to_json(X)
        if len(cells.edge_ids) > BATCH:  # more than one batch of records
            assert max(map(len, chunks)) < len(text) / 2

    @pytest.mark.parametrize(
        "m, k, h_min, h_max",
        [(4, 2, -11, 11), (3, 11, -3, 3)],  # heights past -10; two-digit exponents
    )
    def test_build_order_round_trips(self, m, k, h_min, h_max):
        # a document lists a build's cells in build order, which is not
        # sorted-id order; the text reads back into exactly the build's columns
        cells = build_quotient_complex(GroupParams(m, k), h_min, h_max)
        for ids in (cells.vertex_ids, cells.edge_ids, cells.square_ids):
            assert ids != sorted(ids)
        text = written(cells)
        assert text == record_complex_to_json(records(cells))
        assert complex_model._read_columns(io.StringIO(text)) == cells
