import gc
import itertools
import json
import tracemalloc
from pathlib import Path

import pytest

from cubespec.coeff_group import GroupParams
from cubespec.complex_model import build_quotient_complex, link_masks, validate_complex
from cubespec.hyperplane_engine import (
    compute_hyperplanes,
    core_edges,
    dot_export,
    interaction_report,
    report_to_json,
)

from reference_impl import (
    Edge,
    Square,
    SquareComplex,
    Vertex,
    climb_coset,
    indexed,
    named_core,
    named_partition,
    named_report,
    parse_edge_ids,
    records,
    revalidate_crossing,
    revalidate_one_sided,
    revalidate_osculation,
)
from reference_impl import complex_from_json as record_complex_from_json
from reference_impl import compute_hyperplanes as reference_partition
from reference_impl import interaction_report as reference_report
from test_integer_kernels import fallback_stars

P42 = GroupParams(4, 2)
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cubespec" / "fixtures"


def make_complex(vertices, edges, squares):
    X = SquareComplex()
    for vid in vertices:
        X.vertices[vid] = Vertex(vid)
    for eid, tail, head in edges:
        X.edges[eid] = Edge(eid, tail, head)
    for sid, boundary in squares:
        X.squares[sid] = Square(sid, tuple(boundary))
    indexed(X)
    return X


def partition(X):
    """The view of X and its hyperplane partition, named by id."""
    ix = indexed(X)
    return ix, named_partition(ix, compute_hyperplanes(ix))


def report(X, core_span=None):
    """The partition and interaction report of X, named by id."""
    ix = indexed(X)
    H = compute_hyperplanes(ix)
    core = None if core_span is None else core_edges(ix, *core_span)
    return named_partition(ix, H), named_report(ix, interaction_report(ix, H, core))


def reference_witnesses(X) -> dict:
    """The reference's first witness of each osculating class pair of X, keyed by the pair."""
    return reference_report(X, reference_partition(X)).osculations


def free_square():
    return make_complex(
        ["A", "B", "C", "D"],
        [("a", "A", "B"), ("b", "B", "C"), ("c", "D", "C"), ("d", "A", "D")],
        [("S", [("a", "+"), ("b", "+"), ("c", "-"), ("d", "-")])],
    )


def torus():
    return make_complex(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v")],
        [("S", [("a", "+"), ("b", "+"), ("a", "-"), ("b", "-")])],
    )


def klein_bottle():
    return make_complex(
        ["v"],
        [("a", "v", "v"), ("b", "v", "v")],
        [("S", [("a", "+"), ("b", "+"), ("a", "+"), ("b", "-")])],
    )


def osculating_wedge():
    """Two squares bent around a shared corner so one hyperplane meets itself."""
    return make_complex(
        ["O", "N", "E", "S", "C"],
        [
            ("n", "O", "N"),
            ("e", "O", "E"),
            ("s", "O", "S"),
            ("a1", "N", "C"),
            ("a2", "E", "C"),
            ("b1", "E", "C"),
            ("b2", "S", "C"),
        ],
        [
            ("QNE", [("n", "+"), ("a1", "+"), ("a2", "-"), ("e", "-")]),
            ("QSE", [("e", "+"), ("b1", "+"), ("b2", "-"), ("s", "-")]),
        ],
    )


class TestPartition:
    def test_free_square(self):
        _, H = partition(free_square())
        assert H.n_classes == 2
        assert H.classes == {"a": ("a", "c"), "b": ("b", "d")}
        assert not H.one_sided
        assert all(p == 0 for p in H.parity.values())

    def test_torus_two_sided(self):
        _, H = partition(torus())
        assert H.n_classes == 2
        assert not H.one_sided
        assert H.parity == {"a": 0, "b": 0}

    def test_klein_bottle_one_sided(self):
        _, H = partition(klein_bottle())
        assert H.class_of["a"] == "a"
        assert H.one_sided == frozenset({"a"})
        assert revalidate_one_sided(klein_bottle(), "a")

    def test_idempotent_and_deterministic(self):
        X = records(build_quotient_complex(P42, -2, 2))
        H1 = compute_hyperplanes(indexed(X))
        H2 = compute_hyperplanes(indexed(X))
        assert H1.rep == H2.rep
        assert H1.parity == H2.parity
        assert H1.one_sided == H2.one_sided

    def test_built_complex_all_parities_zero(self):
        X = records(build_quotient_complex(GroupParams(4, 3), -2, 2))
        H = compute_hyperplanes(indexed(X))
        assert not H.one_sided
        assert set(H.parity) == {0}

    def test_classes_preserve_type(self):
        X = records(build_quotient_complex(P42, -2, 2))
        _, H = partition(X)
        for members in H.classes.values():
            types = {X.edges[e].type for e in members}
            assert len(types) == 1


class TestInteractions:
    def test_single_square_report(self):
        _, rep = report(free_square())
        assert list(rep.crossings) == [("a", "b")]
        assert rep.osculations == []
        assert rep.violation_count() == 0

    def test_torus_exempts_adjacent_loops(self):
        _, rep = report(torus())
        assert list(rep.crossings) == [("a", "b")]
        assert rep.osculations == []
        assert rep.violation_count() == 0

    def test_klein_bottle_violation(self):
        _, rep = report(klein_bottle())
        assert len(rep.violations["one_sided"]) == 1
        assert rep.violations["one_sided"][0]["class"] == "a"

    def test_wedge_self_osculation(self):
        X = osculating_wedge()
        H, rep = report(X)
        assert H.classes["a1"] == ("a1", "b2", "e")
        self_osc = rep.violations["self_osc"]
        assert len(self_osc) == 1
        assert self_osc[0]["edges"] == ["a1", "b2"]
        assert self_osc[0]["vertex"] == "C"
        assert revalidate_osculation(X, "a1", "b2", "C")
        # the bent hyperplane also inter-osculates with its two neighbours
        inter = {tuple(v["classes"]) for v in rep.violations["inter_osc"]}
        assert inter == {("a1", "a2"), ("a1", "b1")}
        for v in rep.violations["inter_osc"]:
            assert revalidate_osculation(X, *v["edges"], v["vertex"])
            assert revalidate_crossing(X, H, *v["classes"], v["square"])

    def test_wedge_flags_bigon(self):
        _, rep = report(osculating_wedge())
        assert rep.bigon_pairs == [["a2", "b1", "C", "E"]]

    def test_all_witnesses_revalidate(self):
        X = osculating_wedge()
        H, rep = report(X)
        witnesses = reference_witnesses(X)
        assert rep.osculations
        for pair in rep.osculations:
            assert revalidate_osculation(X, *witnesses[pair])
        for pair, sid in rep.crossings.items():
            assert revalidate_crossing(X, H, pair[0], pair[-1], sid)


class TestBuiltComplexChecks:
    def test_crossings_only_between_adjacent_types(self):
        X = records(build_quotient_complex(P42, -2, 2))
        _, rep = report(X)
        m = 4
        for pair in rep.crossings:
            assert len(pair) == 2
            t1 = X.edges[pair[0]].type
            t2 = X.edges[pair[1]].type
            assert (t1 - t2) % m in (1, m - 1)

    def test_core_report_clean_but_boundary_noisy(self):
        X = records(build_quotient_complex(P42, -3, 3))
        _, full = report(X)
        # truncation artefacts: exempting squares past the boundary are missing
        assert len(full.violations["inter_osc"]) > 0
        assert len(full.violations["self_osc"]) == 0
        assert len(full.violations["self_cross"]) == 0
        _, rep = report(X, core_span=(-1, 1))
        assert rep.violation_count() == 0

    def test_core_classes_match_transport_cosets(self):
        X = records(build_quotient_complex(P42, -3, 3))
        ix, H = partition(X)
        params = X.params
        core = named_core(ix, core_edges(ix, -1, 1))
        keys = {}
        for e, ref in parse_edge_ids(X, core).items():
            keys[e] = (ref.type_j, climb_coset(params, ref.type_j, ref.coeff, ref.height))
        by_class = {}
        by_key = {}
        for e in core:
            by_class.setdefault(H.class_of[e], set()).add(keys[e])
            by_key.setdefault(keys[e], set()).add(H.class_of[e])
        assert all(len(s) == 1 for s in by_class.values())
        assert all(len(s) == 1 for s in by_key.values())

    def test_full_range_filter_is_identity(self):
        X = records(build_quotient_complex(P42, -2, 2))
        ix, H = partition(X)
        _, full = report(X)
        core = core_edges(ix, -2, 2)
        assert named_core(ix, core) == frozenset(H.class_of)
        assert len(core) == len(H.class_of)
        _, rep = report(X, core_span=(-2, 2))
        assert rep.crossings == full.crossings
        assert rep.osculations == full.osculations

    def test_empty_core_range(self):
        X = records(build_quotient_complex(P42, -2, 2))
        ix = indexed(X)
        core = core_edges(ix, 5, 7)
        assert named_core(ix, core) == frozenset()
        assert len(core) == 0 and not core
        _, rep = report(X, core_span=(5, 7))
        assert rep.crossings == {}
        assert rep.osculations == []
        assert rep.violation_count() == 0

    @pytest.mark.parametrize("m, k, h, walked", [(4, 3, 8, 0), (3, 3, 6, 63)])
    def test_clean_core_walks_no_star(self, m, k, h, walked, monkeypatch):
        # a clean core never reaches the witness walk; an m = 3 core has findings
        # and walks exactly the stars that hold them
        ix = indexed(records(build_quotient_complex(GroupParams(m, k), -h, h)))
        H, core = compute_hyperplanes(ix), core_edges(ix, 2 - h, h - 2)
        stars = fallback_stars(monkeypatch)
        rep = interaction_report(ix, H, core)
        assert len(stars) == walked
        assert (rep.violation_count() == 0) == (walked == 0)
        assert any(rep.osculating)

    def test_core_needs_heights(self):
        ix = indexed(osculating_wedge())
        with pytest.raises(ValueError, match="height"):
            core_edges(ix, 0, 1)

    def test_built_multi_edges_flagged_as_bigons(self):
        # consecutive branching heights (k = 3) give parallel partner edges
        # sharing both endpoints; each shared vertex is its own witness
        X = records(build_quotient_complex(GroupParams(4, 3), -1, 3))
        _, rep = report(X)
        assert rep.bigon_pairs
        for e, f, v1, v2 in rep.bigon_pairs:
            assert v1 != v2
            assert X.edges[e].type == X.edges[f].type
            assert {X.edges[e].tail, X.edges[e].head} == {
                X.edges[f].tail,
                X.edges[f].head,
            }

    def test_built_witnesses_revalidate(self):
        X = records(build_quotient_complex(P42, -2, 2))
        H, rep = report(X)
        witnesses = reference_witnesses(X)
        assert rep.osculations
        for pair in rep.osculations:
            assert revalidate_osculation(X, *witnesses[pair])
        for pair, sid in sorted(rep.crossings.items())[::7]:
            assert revalidate_crossing(X, H, pair[0], pair[-1], sid)


def transient_bytes_per_end(m, k, h):
    """Bytes per edge end that ``interaction_report`` holds at its peak over
    what its report keeps, on the clean core 2 inside [-h, h], from a view
    without its link masks."""
    ix = validate_complex(build_quotient_complex(GroupParams(m, k), -h, h))
    H, core = compute_hyperplanes(ix), core_edges(ix, 2 - h, h - 2)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = interaction_report(ix, H, core)
        peak = tracemalloc.get_traced_memory()[1]
        ix.links.clear()  # the view keeps the link masks made in the call; the report does not
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.violation_count() == 0 and kept > base
    return (peak - kept) / len(ix.ends)


def test_report_memory_does_not_grow_with_the_classes():
    # (7,2) has 2.3 times the classes of (6,2), and 17 edge ends a vertex to 14.
    # Masks over the classes held per edge end grow with the class count (they
    # went 84 -> 99 B/end); the rank bits per end and the masks per class do not.
    low, high = transient_bytes_per_end(6, 2, 3), transient_bytes_per_end(7, 2, 3)
    assert high < 1.05 * low, (low, high)


def test_report_keeps_no_witness_per_osculating_pair():
    # (4,5) +-6 margin 2: 58,500 osculating class pairs.  The report keeps 4.4 MB,
    # mostly its 30,000 bigon rows and 12,500 crossing pairs; with a first witness
    # per osculating pair it kept 12.7 MB.
    ix = validate_complex(build_quotient_complex(GroupParams(4, 5), -6, 6))
    H, core = compute_hyperplanes(ix), core_edges(ix, -4, 4)
    link_masks(ix)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = interaction_report(ix, H, core)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert report_to_json(ix, H, rep)["osculating_pairs"] == 58_500
    assert len(rep.bigon_pairs) == 30_000
    assert kept < 6_000_000, kept


def brute_force_bigons(X, core):
    """[e, f, lower, higher] for distinct edges e < f with the same two
    endpoints, both in the core, osculating at both ends; sorted by
    (higher, e, f)."""
    squares_of: dict[str, set] = {e: set() for e in X.edges}
    for sid, sq in X.squares.items():
        for eid, _ in sq.boundary:
            squares_of[eid].add(sid)
    by_ends: dict[frozenset, list] = {}
    for e in X.edges.values():
        by_ends.setdefault(frozenset((e.tail, e.head)), []).append(e.id)
    out = []
    for ends, edges in by_ends.items():
        if len(ends) != 2:
            continue
        for e, f in itertools.combinations(sorted(edges), 2):
            if core is not None and not (e in core and f in core):
                continue
            # only squares with e or f on their boundary can exempt the pair
            local = SquareComplex(
                X.vertices, X.edges,
                {sid: X.squares[sid] for sid in squares_of[e] | squares_of[f]},
            )
            lower, higher = sorted(ends)
            if revalidate_osculation(local, e, f, lower) and revalidate_osculation(
                local, e, f, higher
            ):
                out.append([e, f, lower, higher])
    return sorted(out, key=lambda b: (b[3], b[0], b[1]))


class TestBigons:
    @pytest.mark.parametrize("m, k, h", [(3, 3, 4), (4, 4, 5)])
    @pytest.mark.parametrize("margin", [0, 2])
    def test_built_bigons_match_brute_force(self, m, k, h, margin):
        X = records(build_quotient_complex(GroupParams(m, k), -h, h))
        ix = indexed(X)
        core = core_edges(ix, -h + margin, h - margin) if margin else None
        rep = interaction_report(ix, compute_hyperplanes(ix), core=core)
        expected = brute_force_bigons(X, None if core is None else named_core(ix, core))
        assert expected
        assert rep.bigon_pairs == expected

    def test_double_glue_fixture(self):
        X = record_complex_from_json(json.loads((FIXTURES / "double_glue.json").read_text()))
        _, rep = report(X)
        assert rep.bigon_pairs == brute_force_bigons(X, None)


class TestSerialisation:
    def test_report_json_shape(self):
        ix = indexed(klein_bottle())
        H = compute_hyperplanes(ix)
        doc = report_to_json(ix, H, interaction_report(ix, H))
        assert doc["classes"] == 2
        assert doc["one_sided"] == ["a"]
        assert set(doc["violations"]) == {
            "self_cross",
            "one_sided",
            "self_osc",
            "inter_osc",
        }
        json.dumps(doc)

    def test_dot_export(self):
        ix = indexed(osculating_wedge())
        H = compute_hyperplanes(ix)
        dot = dot_export(ix, interaction_report(ix, H))
        assert dot.startswith("graph interactions {")
        assert '"a1" -- "a2" [style=solid];' in dot
        assert "[style=dashed];" in dot

    def test_deterministic_bytes(self):
        X = records(build_quotient_complex(P42, -2, 2))
        outs = set()
        for _ in range(2):
            ix = indexed(X)
            H = compute_hyperplanes(ix)
            rep = interaction_report(ix, H)
            outs.add(json.dumps(report_to_json(ix, H, rep), sort_keys=True))
        assert len(outs) == 1
