"""The kernels on the integer view against the id-keyed reference kernels.

The document of a corrupted complex given as records must fail to load
with the reference's first fault, message for message: ``validate_complex``
finds a walk that does not close in sorted-id order, and
``complex_from_json`` names the first one in document order.  ``check_npc``,
``compute_hyperplanes``, ``core_edges`` and ``interaction_report`` run
on the integer view of a complex;
``tests/reference_impl.py`` keeps the id-keyed versions they replaced.
Once the program's indices are named, every field must agree, dict
order included, with and without a core.  The osculation witnesses
expanded from the vertex stars must be the reference's, in its order.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from cubespec.coeff_group import GroupParams
from cubespec.complex_model import (
    ComplexFormatError,
    build_quotient_complex,
    check_npc,
    complex_from_json,
)
from cubespec import complex_model, hyperplane_engine
from cubespec.hyperplane_engine import (
    _corners,
    _star_witnesses,
    compute_hyperplanes,
    core_edges,
    interaction_report,
    iter_osculations,
)

from reference_impl import Edge, Square, SquareComplex, Vertex, indexed, records

from test_complex_model import complexes

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cubespec" / "fixtures"


def assert_like_reference(X: SquareComplex, span=None) -> None:
    ix = indexed(X)
    assert check_npc(ix).failures == ref.check_npc(X).failures
    H = compute_hyperplanes(ix)
    want_H = ref.compute_hyperplanes(X)
    got_H = ref.named_partition(ix, H)
    assert got_H.class_of == want_H.class_of
    assert got_H.parity == want_H.parity
    assert got_H.one_sided == want_H.one_sided
    assert got_H.classes == want_H.classes
    assert got_H.one_sided_witness == want_H.one_sided_witness
    assert H.n_classes == want_H.n_classes
    core = want_core = None
    if span is not None:
        core, want_core = core_edges(ix, *span), ref.core_edges(X, *span)
        assert ref.named_core(ix, core) == want_core
        assert len(core) == len(want_core)
    got = ref.named_report(ix, interaction_report(ix, H, core))
    want = ref.interaction_report(X, want_H, core=want_core, core_span=span)
    assert list(got.crossings.items()) == list(want.crossings.items())
    assert got.osculations == sorted(want.osculations)  # the reference keys first witnesses
    assert got.violations == want.violations
    assert got.bigon_pairs == want.bigon_pairs
    assert got.core == want.core


def fallback_stars(monkeypatch) -> list:
    """The vertex of every star walked witness by witness from here on, in order."""
    walk, stars = hyperplane_engine._star_witnesses, []

    def counted(v, *rest):
        stars.append(v)
        return walk(v, *rest)

    monkeypatch.setattr(hyperplane_engine, "_star_witnesses", counted)
    return stars


def star_witnesses(ix, core=None) -> list[tuple[str, str, str]]:
    """The witnesses of every vertex star of ix, named by id, in walk order."""
    star_masks = _corners(ix, core)[0]
    eids, vids = ix.edge_ids, ix.vertex_ids
    return [
        (eids[e], eids[f], vids[v])
        for v, edges in iter_osculations(ix, core)
        for e, f, _ in _star_witnesses(v, edges, *star_masks(v, edges))
    ]


def heights_span(X: SquareComplex, data):
    """A drawn core span over the heights of X, or None without heights."""
    heights = [v.height for v in X.vertices.values()]
    if not heights or None in heights:
        return None
    lo = data.draw(st.integers(min(heights) - 1, max(heights) + 1))
    return lo, data.draw(st.integers(lo - 1, max(heights) + 1))


names = st.text(alphabet="abAB/0é", max_size=3)


@st.composite
def glued_complexes(draw, min_squares=0) -> SquareComplex:
    """Complexes on few vertices whose squares reuse edges: loops, repeated
    sides within one square, parallel edges and squares glued along sides."""
    vids = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    X = SquareComplex()
    for vid in vids:
        X.vertices[vid] = Vertex(vid, draw(st.one_of(st.none(), st.integers(-3, 3))))
    eids = iter(draw(st.lists(names, min_size=24, max_size=24, unique=True)))
    sids = draw(st.lists(names, min_size=min_squares, max_size=4, unique=True))
    for sid in sids:
        corners = [draw(st.sampled_from(vids)) for _ in range(4)]
        boundary = []
        for n in range(4):
            a, b = corners[n], corners[(n + 1) % 4]
            reuse = [(e.id, "+") for e in X.edges.values() if (e.tail, e.head) == (a, b)]
            reuse += [(e.id, "-") for e in X.edges.values() if (e.tail, e.head) == (b, a)]
            if reuse and draw(st.booleans()):
                boundary.append(draw(st.sampled_from(reuse)))
            else:
                eid, d = next(eids), draw(st.sampled_from("+-"))
                X.edges[eid] = Edge(eid, *((a, b) if d == "+" else (b, a)))
                boundary.append((eid, d))
        X.squares[sid] = Square(sid, tuple(boundary))
    for _ in range(draw(st.integers(0, 3))):
        eid = next(eids)
        X.edges[eid] = Edge(eid, draw(st.sampled_from(vids)), draw(st.sampled_from(vids)))
    return X


@st.composite
def corrupted_complexes(draw) -> SquareComplex:
    """Complexes with up to three faults: unknown endpoints, unknown or
    repeated edges, bad directions, flipped sides, wrong side counts."""
    X = draw(st.one_of(glued_complexes(min_squares=1), complexes()))
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(["flip", "edge", "dir", "count", "tail", "head"]))
        if fault in ("tail", "head"):
            if X.edges:
                edge = draw(st.sampled_from(list(X.edges.values())))
                setattr(edge, fault, draw(names))
        elif X.squares:
            square = draw(st.sampled_from(list(X.squares.values())))
            sides = list(square.boundary)
            n = draw(st.integers(0, len(sides) - 1)) if sides else 0
            if fault == "count":
                sides = sides[:n] if draw(st.booleans()) else sides + sides[:1]
            elif sides:
                eid, d = sides[n]
                if fault == "edge":
                    sides[n] = (draw(st.one_of(names, st.sampled_from(list(X.edges)))), d)
                elif fault == "dir":
                    sides[n] = (eid, draw(st.sampled_from(["", "x", "++", None])))
                else:
                    sides[n] = (eid, "-" if d == "+" else "+")
            square.boundary = tuple(sides)
    return X


def fan(spokes: int, faults: tuple[str, ...]) -> SquareComplex:
    """Spokes O -> Pi glued in a cycle by squares O -> Pi -> Ai <- Pi+1 <- O,
    a loop at O in a square with spoke 0, and a square at O for each of
    the link faults named (see ``test_link_wider_than_a_machine_word``)."""
    X = SquareComplex()
    X.vertices["O"] = Vertex("O")

    def edge(eid, tail, head):
        for vid in (tail, head):
            X.vertices.setdefault(vid, Vertex(vid))
        X.edges[eid] = Edge(eid, tail, head)

    def glue(sid, i, j, apex):
        # O -> Pi -> apex <- Pj <- O; the corner at O joins the tails of spokes j and i
        edge(f"x{sid}", f"P{i:02}", apex)
        edge(f"y{sid}", f"P{j:02}", apex)
        X.squares[sid] = Square(
            sid, ((f"e{i:02}", "+"), (f"x{sid}", "+"), (f"y{sid}", "-"), (f"e{j:02}", "-"))
        )

    for i in range(spokes):
        edge(f"e{i:02}", "O", f"P{i:02}")
    for i in range(spokes):
        glue(f"S{i:02}", i, (i + 1) % spokes, f"A{i:02}")
    edge("loop", "O", "O")
    edge("f", "P00", "Z")
    edge("g", "Z", "O")
    X.squares["L"] = Square("L", (("loop", "+"), ("e00", "+"), ("f", "+"), ("g", "+")))
    if "double_adjacency" in faults:
        glue("D", 2, 3, "B")  # the corner of S02 again
    if "triangle" in faults:
        glue("T", 66, 68, "C")
    if "self_adjacency" in faults:
        edge("h", "P05", "Q")
        X.squares["U"] = Square("U", (("e05", "+"), ("h", "+"), ("h", "-"), ("e05", "-")))
    return X


def first_fault(validate, X):
    try:
        validate(X)
    except ComplexFormatError as exc:
        return str(exc)
    return None


def loaded(X):
    """The program's view of the document of X, read from a stream."""
    return complex_from_json(io.StringIO(ref.complex_to_json(X)))


def reference_loaded(X):
    """The reference's reading of the same document: the faults of its records by position,
    then those of its incidences by id, each in document order."""
    ref.validate_complex(ref.complex_from_json(json.loads(ref.complex_to_json(X))))


def corrupt_built(*faults) -> SquareComplex:
    """A (4,2) build with each (fault, n) put in its n-th edge or square,
    its cells inserted in reverse id order."""
    X = records(build_quotient_complex(GroupParams(4, 2), -1, 2))
    X.edges = dict(reversed(X.edges.items()))
    X.squares = dict(reversed(X.squares.items()))
    edges, squares = list(X.edges.values()), list(X.squares.values())
    for fault, n in faults:
        square = squares[n]
        eid, d = square.boundary[1]
        if fault in ("tail", "head"):
            setattr(edges[n], fault, "v/9/9")
        elif fault == "count":
            square.boundary = square.boundary[:3]
        else:
            side = {"edge": ("e/9/9", d), "dir": (eid, "x"), "flip": (eid, "+-"[d == "+"])}
            square.boundary = square.boundary[:1] + (side[fault],) + square.boundary[2:]
    return X


class TestAgainstReference:
    @given(corrupted_complexes())
    @settings(max_examples=300, deadline=None)
    def test_validation_faults(self, X):
        assert first_fault(loaded, X) == first_fault(reference_loaded, X)

    @pytest.mark.parametrize("fault", ["tail", "head", "edge", "dir", "flip", "count"])
    def test_each_fault_in_insertion_order(self, fault):
        # edges are checked before squares, and each in document order, not in id order
        for faults in [[(fault, 5)], [(fault, 5), ("flip", 40)], [("head", 40), (fault, 5)]]:
            X = corrupt_built(*faults)
            want = first_fault(reference_loaded, X)
            assert want is not None
            assert first_fault(loaded, X) == want

    @given(st.one_of(complexes(), glued_complexes()), st.data())
    @settings(max_examples=300, deadline=None)
    def test_hand_made(self, X, data):
        assert_like_reference(X)
        span = heights_span(X, data)
        if span is not None:
            assert_like_reference(X, span)

    @pytest.mark.parametrize(
        "name",
        ["double_glue", "klein_bottle", "link_triangle", "osculating_wedge",
         "same_type_corner", "torus"],
    )
    def test_fixture(self, name):
        X = ref.complex_from_json(json.loads((FIXTURES / f"{name}.json").read_text()))
        assert_like_reference(X)

    @pytest.mark.parametrize("m, k", [(4, 2), (3, 3), (4, 4), (5, 3)])
    def test_build(self, m, k):
        X = records(build_quotient_complex(GroupParams(m, k), -(k + 2), k + 2))
        assert_like_reference(X)  # with a core: test_build_core

    @pytest.mark.parametrize(
        "m, k, margin, walked",
        [(3, 2, 0, 1), (3, 2, 2, 1), (3, 3, 0, 1), (3, 3, 2, 1), (3, 4, 0, 1), (3, 4, 2, 1),
         (4, 2, 0, 1), (4, 3, 0, 1), (4, 4, 0, 1), (5, 3, 0, 1),
         (4, 2, 2, 0), (4, 3, 2, 0), (4, 4, 2, 0), (5, 3, 2, 0)],
    )
    def test_build_core(self, m, k, margin, walked, monkeypatch):
        # a core with violations is walked at the vertices that hold them, and
        # only there; a clean core is decided on the class masks alone
        span = k + 2
        X = records(build_quotient_complex(GroupParams(m, k), -span, span))
        assert_like_reference(X, (margin - span, span - margin))
        ix = indexed(X)
        stars = fallback_stars(monkeypatch)
        report = interaction_report(
            ix, compute_hyperplanes(ix), core_edges(ix, margin - span, span - margin)
        )
        held = {w["vertex"] for key in ("self_osc", "inter_osc") for w in report.violations[key]}
        assert sorted(ix.vertex_ids[v] for v in stars) == sorted(held)
        assert bool(stars) == bool(walked)

    def test_parallel_edges_adjacent_at_one_end(self, monkeypatch):
        # a and b run from u to w and meet at a corner only at u; the clause
        # exempts them at w too, so they are no bigon.  In the core [0, 1],
        # the star at w holds two classes and is decided on the masks.
        X = SquareComplex()
        for vid, height in (("u", 0), ("w", 1), ("z", 2)):
            X.vertices[vid] = Vertex(vid, height)
        for eid, tail, head in (("a", "u", "w"), ("b", "u", "w"), ("c", "w", "z"), ("d", "z", "w")):
            X.edges[eid] = Edge(eid, tail, head)
        X.squares["S"] = Square("S", (("b", "-"), ("a", "+"), ("c", "+"), ("d", "+")))
        stars = fallback_stars(monkeypatch)
        assert_like_reference(X, (0, 1))
        assert stars == []
        ix = indexed(X)
        report = interaction_report(ix, compute_hyperplanes(ix), core_edges(ix, 0, 1))
        assert not any(report.osculating) and report.bigon_pairs == []
        assert_like_reference(X)

    def test_loop_adjacent_at_its_tail_end_only(self, monkeypatch):
        # the loop e at v meets g at the corner where e stops, its tail end;
        # the corner where e starts has the side h, outside the core [0, 1]
        X = SquareComplex()
        for vid, height in (("v", 0), ("w", 1), ("x", 2)):
            X.vertices[vid] = Vertex(vid, height)
        for eid, tail, head in (("e", "v", "v"), ("g", "v", "w"), ("f", "w", "x"), ("h", "x", "v")):
            X.edges[eid] = Edge(eid, tail, head)
        X.squares["S"] = Square("S", (("e", "-"), ("g", "+"), ("f", "+"), ("h", "+")))
        stars = fallback_stars(monkeypatch)
        assert_like_reference(X, (0, 1))
        assert stars == []
        assert_like_reference(X)

    def test_two_edges_of_one_class_at_a_vertex(self, monkeypatch):
        # u -a-> w -c-> z -b-> w -d-> u: the opposite sides a and b meet at w,
        # at no corner, so they self-osculate there
        X = SquareComplex()
        for vid in "uwz":
            X.vertices[vid] = Vertex(vid)
        for eid, tail, head in (("a", "u", "w"), ("c", "w", "z"), ("b", "z", "w"), ("d", "w", "u")):
            X.edges[eid] = Edge(eid, tail, head)
        X.squares["S"] = Square("S", (("a", "+"), ("c", "+"), ("b", "+"), ("d", "+")))
        stars = fallback_stars(monkeypatch)
        assert_like_reference(X)
        ix = indexed(X)
        assert [ix.vertex_ids[v] for v in stars] == ["w"]
        report = interaction_report(ix, compute_hyperplanes(ix))
        assert {"class": "a", "edges": ["a", "b"], "vertex": "w"} in report.violations["self_osc"]

    @pytest.mark.parametrize(
        "faults", [(), ("triangle",), ("double_adjacency", "self_adjacency", "triangle")]
    )
    def test_link_wider_than_a_machine_word(self, faults, monkeypatch):
        # the link of O is a cycle on the tails of 70 spokes, with a loop at O
        # hanging off spoke 0, so O has 73 edge ends and masks past 64 bits.
        # The faults all sit in that link: spokes 2 and 3 glued twice (a
        # double adjacency), spoke 5 glued to itself (a self-adjacency) and
        # spokes 66 and 68 glued (a triangle with 67, on bits past 64).  Only
        # a complex that fails is split into its links.
        X = fan(70, faults)
        assert_like_reference(X)
        split, calls = complex_model.link_corners, []
        monkeypatch.setattr(complex_model, "link_corners", lambda ix: calls.append(1) or split(ix))
        report = check_npc(indexed(X))
        assert {f["kind"] for f in report.failures if f["vertex"] == "O"} == set(faults)
        assert report.passed == (not faults)
        assert len(calls) == (1 if faults else 0)

    def test_union_of_two_one_sided_roots(self):
        # S1 and S2 each make a one-sided class, {a1} and {a2}: opposite sides
        # on one edge in one direction.  S3 unites a1 with a2, two roots that
        # both hold a conflict, and the class keeps the first, from S1.
        X = SquareComplex()
        for vid in "uv":
            X.vertices[vid] = Vertex(vid)
        for eid in ("a1", "a2"):
            X.edges[eid] = Edge(eid, "u", "v")
        for eid in ("b1", "b2", "c1", "c2"):
            X.edges[eid] = Edge(eid, "v", "u")
        X.squares["S1"] = Square("S1", (("a1", "+"), ("b1", "+"), ("a1", "+"), ("c1", "+")))
        X.squares["S2"] = Square("S2", (("a2", "+"), ("b2", "+"), ("a2", "+"), ("c2", "+")))
        X.squares["S3"] = Square("S3", (("a1", "+"), ("b1", "+"), ("a2", "+"), ("c1", "+")))
        assert_like_reference(X)
        ix = indexed(X)
        H = ref.named_partition(ix, compute_hyperplanes(ix))
        assert H.one_sided_witness == {"a1": ("a1", "a1", "S1")}
        assert H.class_of["a2"] == "a1"

    @pytest.mark.parametrize("d_first", [True, False], ids=["side_a", "side_b"])
    def test_path_compression_keeps_the_parity(self, d_first):
        # S1 puts b under a and S2 d under c, each root of rank 1; S3 puts c
        # under a, so d is two steps from its root, at parity 1.  S4 finds d
        # in the union loop, as the first or the second side of its pair,
        # which compresses its path to one step.
        X = SquareComplex()
        for vid in "uv":
            X.vertices[vid] = Vertex(vid)
        for eid in ("a", "b", "c", "g", "f1", "f2", "f3", "f4"):
            X.edges[eid] = Edge(eid, "u", "v")
        X.edges["d"] = Edge("d", "v", "u")
        s4 = [("d", "-"), ("g", "+")]
        for sid, (x, dx), (y, dy) in (
            ("S1", ("a", "+"), ("b", "+")),
            ("S2", ("c", "+"), ("d", "-")),
            ("S3", ("a", "+"), ("c", "+")),
            ("S4", *(s4 if d_first else s4[::-1])),
        ):
            f = (f"f{sid[1]}", "-")
            X.squares[sid] = Square(sid, ((x, dx), f, (y, dy), f))
        assert_like_reference(X)
        ix = indexed(X)
        H = ref.named_partition(ix, compute_hyperplanes(ix))
        assert (H.class_of["d"], H.parity["d"]) == ("a", 1)

    @given(glued_complexes(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_star_witnesses_hand_made(self, X, data):
        ix = indexed(X)
        assert star_witnesses(ix) == list(ref.iter_osculations(X))
        span = heights_span(X, data)
        if span is not None:
            want = ref.iter_osculations(X, core=ref.core_edges(X, *span))
            assert star_witnesses(ix, core_edges(ix, *span)) == list(want)

    @pytest.mark.parametrize("m, k", [(3, 3), (4, 3)])
    def test_star_witnesses_build(self, m, k):
        X = records(build_quotient_complex(GroupParams(m, k), -(k + 2), k + 2))
        ix = indexed(X)
        assert star_witnesses(ix) == list(ref.iter_osculations(X))
        want = ref.iter_osculations(X, core=ref.core_edges(X, -k, k))
        assert star_witnesses(ix, core_edges(ix, -k, k)) == list(want)
