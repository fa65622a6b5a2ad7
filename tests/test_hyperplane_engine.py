import itertools
import json
from pathlib import Path

import pytest

from cubespec.coeff_group import GroupParams
from cubespec.complex_model import (
    Edge,
    Square,
    SquareComplex,
    Vertex,
    build_quotient_complex,
    complex_from_json,
    parse_edge_ids,
    validate_complex,
)
from cubespec.hyperplane_engine import (
    compute_hyperplanes,
    core_edges,
    dot_export,
    interaction_report,
    report_to_json,
)

from reference_impl import (
    climb_coset,
    named_core,
    named_partition,
    named_report,
    revalidate_crossing,
    revalidate_one_sided,
    revalidate_osculation,
)

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
    validate_complex(X)
    return X


def partition(X):
    """The view of X and its hyperplane partition, named by id."""
    ix = validate_complex(X)
    return ix, named_partition(ix, compute_hyperplanes(ix))


def report(X, core_span=None):
    """The partition and interaction report of X, named by id."""
    ix = validate_complex(X)
    H = compute_hyperplanes(ix)
    core = None if core_span is None else core_edges(ix, *core_span)
    return named_partition(ix, H), named_report(ix, interaction_report(ix, H, core))


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
        X = build_quotient_complex(P42, -2, 2)
        H1 = compute_hyperplanes(validate_complex(X))
        H2 = compute_hyperplanes(validate_complex(X))
        assert H1.rep == H2.rep
        assert H1.parity == H2.parity
        assert H1.one_sided == H2.one_sided

    def test_built_complex_all_parities_zero(self):
        X = build_quotient_complex(GroupParams(4, 3), -2, 2)
        H = compute_hyperplanes(validate_complex(X))
        assert not H.one_sided
        assert set(H.parity) == {0}

    def test_classes_preserve_type(self):
        X = build_quotient_complex(P42, -2, 2)
        _, H = partition(X)
        for members in H.classes.values():
            types = {X.edges[e].type for e in members}
            assert len(types) == 1


class TestInteractions:
    def test_single_square_report(self):
        _, rep = report(free_square())
        assert list(rep.crossings) == [("a", "b")]
        assert rep.osculations == {}
        assert rep.violation_count() == 0

    def test_torus_exempts_adjacent_loops(self):
        _, rep = report(torus())
        assert list(rep.crossings) == [("a", "b")]
        assert rep.osculations == {}
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
        for pair, (e, f, v) in rep.osculations.items():
            assert revalidate_osculation(X, e, f, v)
        for pair, sid in rep.crossings.items():
            assert revalidate_crossing(X, H, pair[0], pair[-1], sid)


class TestBuiltComplexChecks:
    def test_crossings_only_between_adjacent_types(self):
        X = build_quotient_complex(P42, -2, 2)
        _, rep = report(X)
        m = 4
        for pair in rep.crossings:
            assert len(pair) == 2
            t1 = X.edges[pair[0]].type
            t2 = X.edges[pair[1]].type
            assert (t1 - t2) % m in (1, m - 1)

    def test_core_report_clean_but_boundary_noisy(self):
        X = build_quotient_complex(P42, -3, 3)
        _, full = report(X)
        # truncation artefacts: exempting squares past the boundary are missing
        assert len(full.violations["inter_osc"]) > 0
        assert len(full.violations["self_osc"]) == 0
        assert len(full.violations["self_cross"]) == 0
        _, rep = report(X, core_span=(-1, 1))
        assert rep.violation_count() == 0

    def test_core_classes_match_transport_cosets(self):
        X = build_quotient_complex(P42, -3, 3)
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
        X = build_quotient_complex(P42, -2, 2)
        ix, H = partition(X)
        _, full = report(X)
        core = core_edges(ix, -2, 2)
        assert named_core(ix, core) == frozenset(H.class_of)
        assert len(core) == len(H.class_of)
        _, rep = report(X, core_span=(-2, 2))
        assert rep.crossings == full.crossings
        assert rep.osculations == full.osculations

    def test_empty_core_range(self):
        X = build_quotient_complex(P42, -2, 2)
        ix = validate_complex(X)
        core = core_edges(ix, 5, 7)
        assert named_core(ix, core) == frozenset()
        assert len(core) == 0 and not core
        _, rep = report(X, core_span=(5, 7))
        assert rep.crossings == {}
        assert rep.osculations == {}
        assert rep.violation_count() == 0

    def test_core_needs_heights(self):
        ix = validate_complex(osculating_wedge())
        with pytest.raises(ValueError, match="height"):
            core_edges(ix, 0, 1)

    def test_built_multi_edges_flagged_as_bigons(self):
        # consecutive branching heights (k = 3) give parallel partner edges
        # sharing both endpoints; each shared vertex is its own witness
        X = build_quotient_complex(GroupParams(4, 3), -1, 3)
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
        X = build_quotient_complex(P42, -2, 2)
        H, rep = report(X)
        sample = sorted(rep.osculations.items())[::7]
        assert sample
        for _, (e, f, v) in sample:
            assert revalidate_osculation(X, e, f, v)
        for pair, sid in sorted(rep.crossings.items())[::7]:
            assert revalidate_crossing(X, H, pair[0], pair[-1], sid)


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
        X = build_quotient_complex(GroupParams(m, k), -h, h)
        ix = validate_complex(X)
        core = core_edges(ix, -h + margin, h - margin) if margin else None
        rep = interaction_report(ix, compute_hyperplanes(ix), core=core)
        expected = brute_force_bigons(X, None if core is None else named_core(ix, core))
        assert expected
        assert rep.bigon_pairs == expected

    def test_double_glue_fixture(self):
        X = complex_from_json(json.loads((FIXTURES / "double_glue.json").read_text()))
        _, rep = report(X)
        assert rep.bigon_pairs == brute_force_bigons(X, None)


class TestSerialisation:
    def test_report_json_shape(self):
        ix = validate_complex(klein_bottle())
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
        ix = validate_complex(osculating_wedge())
        H = compute_hyperplanes(ix)
        dot = dot_export(ix, interaction_report(ix, H))
        assert dot.startswith("graph interactions {")
        assert '"a1" -- "a2" [style=solid];' in dot
        assert "[style=dashed];" in dot

    def test_deterministic_bytes(self):
        X = build_quotient_complex(P42, -2, 2)
        outs = set()
        for _ in range(2):
            ix = validate_complex(X)
            H = compute_hyperplanes(ix)
            rep = interaction_report(ix, H)
            outs.add(json.dumps(report_to_json(ix, H, rep), sort_keys=True))
        assert len(outs) == 1
