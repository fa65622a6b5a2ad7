import ast
import contextlib
import io
import json
import resource
from array import array

import pytest

from cubespec import cli, hyperplane_engine, verifier
from cubespec.coeff_group import (
    Elem,
    GroupParams,
    constant,
    edge_type_stabilizer,
    identity,
    unit,
)
from cubespec.complex_model import (
    Cells,
    ComplexFormatError,
    build_quotient_complex,
    complex_from_json,
    validate_complex,
)
from cubespec.hyperplane_engine import compute_hyperplanes
from cubespec.incidence import DEFAULT_SIZE_CAP, SquareRef, square_boundary
from cubespec.verifier import (
    FAMILIES,
    check_inter_osculation_cases,
    check_self_osculation_cases,
    check_structural_conditions,
    classify_osculation,
    core_coefficients,
    cross_validate,
    derive_stabilizer_from_loops,
    verify_all,
)

from reference_impl import built_square_refs, coset, coset_intersection, family_cosets, records
from reference_impl import char_value, cyclic_closure, separates

from test_complex_model import written
from test_integer_kernels import fallback_stars

P42 = GroupParams(4, 2)
P43 = GroupParams(4, 3)
# what a core osculation witness may classify as: a row of the table, or benign
WITNESS_CASES = {row.case_id for row in FAMILIES} | {"benign_nonadjacent"}


class TestStabilizerDerivation:
    def test_named_instances(self):
        got = cyclic_closure(derive_stabilizer_from_loops(P43, 3))
        assert got == cyclic_closure(edge_type_stabilizer(P43, 3))
        assert (unit(P43, 2) * unit(P43, 3)) in got
        wrap = cyclic_closure(derive_stabilizer_from_loops(P43, 1))
        assert (unit(P43, 4) * unit(P43, 1)) in wrap

    def test_matches_formula_on_grid(self):
        for m in range(3, 7):
            for k in (2, 3, 5):
                params = GroupParams(m, k)
                for j in range(1, m + 1):
                    derived = derive_stabilizer_from_loops(params, j)
                    expected = edge_type_stabilizer(params, j)
                    assert cyclic_closure(derived) == cyclic_closure(expected), (m, k, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            derive_stabilizer_from_loops(P43, 0)

    @pytest.mark.parametrize(
        "params, power",
        [(P43, 2), (GroupParams(4, 5), 2), (GroupParams(4, 5), -1), (GroupParams(3, 4), -1)],
    )
    def test_other_generator_of_the_subgroup_matches(self, params, power, monkeypatch):
        # a power prime to k generates the same subgroup: match compares
        # subgroups, not generators
        real = verifier.derive_stabilizer_from_loops
        monkeypatch.setattr(
            verifier, "derive_stabilizer_from_loops", lambda p, j: real(p, j) ** power
        )
        report = verify_all(params)
        assert all(s.derived != s.expected for s in report.stabilizers)
        assert all(s.match for s in report.stabilizers)

    def test_other_subgroup_is_a_mismatch(self, monkeypatch, capsys):
        monkeypatch.setattr(verifier, "derive_stabilizer_from_loops", lambda p, j: unit(p, j))
        report = verify_all(P43)
        assert not any(s.match for s in report.stabilizers)
        assert not report.all_empty
        assert cli.main(["verify", "--m", "4", "--k", "3"]) == 1
        out = capsys.readouterr().out
        assert out.count("MISMATCH") == 4 and "all_empty=False" in out


class TestSelfOsculationCases:
    def test_all_empty_in_guarantee_regime(self):
        for params in (P42, P43):
            certs = check_self_osculation_cases(params)
            assert len(certs) == 4 * params.m
            assert all(c.empty for c in certs)
            assert all(c.named_character_valid for c in certs)
            assert all(c.separating_character == c.named_character for c in certs)

    def test_named_characters(self):
        certs = {(c.case_id, c.j): c for c in check_self_osculation_cases(P43)}
        mixed = certs[("selfosc_b_eq_a_minus_1", 2)]
        assert mixed.named_character == (1, 2, 0, 0)  # D(1) * D(2)^-1
        level = certs[("selfosc_b_eq_a_at_a", 2)]
        assert level.named_character == (0, 0, 1, 0)  # D(3)

    def test_m3_still_empty(self):
        # the equal-height case only needs three distinct indices
        certs = check_self_osculation_cases(GroupParams(3, 2))
        assert all(c.empty for c in certs)

    def test_composite_k_honest_failure(self):
        certs = check_self_osculation_cases(GroupParams(4, 4))
        level = [c for c in certs if c.case_id == "selfosc_b_eq_a_at_a"]
        assert all(not c.empty for c in level)
        # witness (a=2, c=2): the twist lands exactly on the identity
        for c in level:
            assert any(w[0] == 2 and w[1] == 2 for w in c.witnesses)

    def test_enumeration_counts(self):
        certs = {(c.case_id, c.j): c for c in check_self_osculation_cases(P43)}
        assert certs[("selfosc_b_eq_a_minus_1", 1)].enumerated == 9
        assert certs[("selfosc_b_eq_a_at_a", 1)].enumerated == 4
        assert certs[("selfosc_b_eq_a_at_a_minus_1", 1)].enumerated == 4


class TestInterOsculationCases:
    def test_all_empty_in_guarantee_regime(self):
        for params in (P42, GroupParams(5, 3)):
            certs = check_inter_osculation_cases(params)
            assert len(certs) == 4 * params.m
            assert all(c.empty for c in certs)
            assert all(c.named_character_valid for c in certs)

    def test_single_instance_by_hand(self):
        # j=1, a=1, b=1, c=1: both three-element cosets enumerate to disjoint sets
        left = coset(identity(P43), edge_type_stabilizer(P43, 1))
        right = coset(
            constant(P43, 1) * unit(P43, 2) ** 0,
            edge_type_stabilizer(P43, 2),
        )
        assert coset_intersection(left, right) == frozenset()
        cert = next(
            c
            for c in check_inter_osculation_cases(P43)
            if c.case_id == "interosc_1_1" and c.j == 1
        )
        assert cert.empty
        assert cert.named_character == (0, 0, 1, 0)  # D(3)

    def test_case2_uses_second_unit_character(self):
        certs = [c for c in check_inter_osculation_cases(P43) if c.j == 4]
        assert {c.case_id for c in certs} == {
            "interosc_2_1",
            "interosc_2_2",
            "interosc_2_3",
            "interosc_2_4",
        }
        for c in certs:
            assert c.named_character == (0, 1, 0, 0)  # D(2)
            assert c.named_character_valid

    def test_m3_honest_nonempty(self):
        certs = check_inter_osculation_cases(GroupParams(3, 2))
        assert all(not c.empty for c in certs)
        assert all(c.separating_character is None for c in certs)
        # hand check of the first recorded witness of sub-case 1.1, j=1
        cert = next(c for c in certs if c.case_id == "interosc_1_1" and c.j == 1)
        a, b, c_, member = cert.witnesses[0]
        params = GroupParams(3, 2)
        elem = Elem(params, member)
        left = coset(identity(params), edge_type_stabilizer(params, 1))
        right = coset(
            constant(params, b) ** c_ * unit(params, 2) ** (b - a),
            edge_type_stabilizer(params, 2),
        )
        assert elem in left and elem in right

    def test_quantifier_counts(self):
        certs = check_inter_osculation_cases(P43)
        assert all(c.enumerated == 3 * 2 * 2 for c in certs)


class TestSoundnessSpotCheck:
    def test_characters_recertify_every_tuple(self):
        # independent re-evaluation of the certificate characters
        params = P43
        for cert in check_inter_osculation_cases(params):
            assert cert.empty
            chi = cert.separating_character
            assert char_value(chi, Elem(params, cert.left_subgroup)) == 0
            assert char_value(chi, Elem(params, cert.right_subgroup)) == 0

    def test_character_splits_reps_on_rebuilt_tuples(self):
        # rebuild the first sub-case's cosets from scratch and check the
        # certificate character separates the representatives per tuple
        params = P43
        cert = next(
            c
            for c in check_inter_osculation_cases(params)
            if c.case_id == "interosc_1_1" and c.j == 2
        )
        chi = cert.separating_character
        j = 2
        stab_j = edge_type_stabilizer(params, j)
        stab_next = edge_type_stabilizer(params, j + 1)
        for a in range(3):
            for b in range(1, 3):
                for c_ in range(1, 3):
                    left = coset(identity(params), stab_j)
                    right = coset(
                        constant(params, b) ** c_ * unit(params, j + 1) ** (b - a),
                        stab_next,
                    )
                    assert coset_intersection(left, right) == frozenset()
                    assert char_value(chi, left.rep) != char_value(chi, right.rep), (a, b, c_)


QUANTIFIED_TUPLES = {
    "a in [0,k); c in [0,k)": lambda k: [(a, c) for a in range(k) for c in range(k)],
    "a in [1,k); c in [1,k)": lambda k: [(a, c) for a in range(1, k) for c in range(1, k)],
    "a in [0,k), a-1 not 0 mod k; c in [1,k)": lambda k: [
        (a, c) for a in range(k) if (a - 1) % k for c in range(1, k)
    ],
    "a in [0,k); b in [1,k); c in [1,k)": lambda k: [
        (a, b, c) for a in range(k) for b in range(1, k) for c in range(1, k)
    ],
}


@pytest.mark.parametrize("m, k", [(3, 3), (3, 5), (3, 7), (4, 4)])
def test_witnesses_recheck_against_elem_cosets(m, k):
    # every osculation family against its cosets restated with Elem
    # arithmetic: a witness lies in both cosets of its tuple and is their
    # least common member, a tuple without one has disjoint cosets, and
    # the named and separating characters agree with the coset pairs
    params = GroupParams(m, k)
    families = [c for c in verify_all(params).certificates if c.named_character is not None]
    assert len(families) == 8 * m and any(not c.empty for c in families)
    for cert in families:
        tuples = QUANTIFIED_TUPLES[cert.quantifiers](k)
        assert cert.enumerated == len(tuples)
        pairs = [family_cosets(params, cert.case_id, cert.j, t) for t in tuples]
        assert {(l.gen.exps, r.gen.exps) for l, r in pairs} == {
            (cert.left_subgroup, cert.right_subgroup)
        }
        by_tuple = {w[:-1]: Elem(params, w[-1]) for w in cert.witnesses}
        for t, (left, right) in zip(tuples, pairs):
            common = [e.exps for e in left.elements() if e in right]
            if t in by_tuple:
                member = by_tuple[t]
                assert member in left and member in right, (cert.case_id, cert.j, t)
                assert member.exps == min(common), (cert.case_id, cert.j, t)
            else:
                assert common == [], (cert.case_id, cert.j, t)
        assert [w[:-1] for w in cert.witnesses] == [t for t in tuples if t in by_tuple]
        assert cert.named_character_valid == separates(cert.named_character, pairs)
        if cert.separating_character is not None:
            assert separates(cert.separating_character, pairs)


class TestStructuralConditions:
    def test_built_complexes_pass(self):
        for params in (P42, GroupParams(5, 3)):
            cond1, cond2 = check_structural_conditions(params)
            assert cond1.case_id == "cond1_corner_types" and cond1.empty
            assert cond2.case_id == "cond2_orientation" and cond2.empty
            assert cond1.enumerated == 4 * params.m * params.k
            assert cond2.enumerated == 2 * params.m * params.k
            # and the union-find on a build agrees
            H = compute_hyperplanes(validate_complex(build_quotient_complex(params, -2, 2)))
            assert set(H.parity) == {0} and not H.one_sided

    @pytest.mark.parametrize("m,k", [(3, 3), (4, 2), (4, 4), (5, 3)])
    def test_shapes_match_built_squares(self, m, k):
        # every built square has the side types and direction flags of its
        # (type, height mod k) identity square, the one the shape scan reads
        params = GroupParams(m, k)
        shapes = {
            (j, r): tuple(
                (er.type_j, d)
                for er, d in square_boundary(SquareRef(r, j, identity(params)))
            )
            for j in range(1, m + 1)
            for r in range(k)
        }
        X = records(build_quotient_complex(params, -(k + 1), k + 1))
        seen = set()
        for sid, ref in built_square_refs(X).items():
            built = tuple((X.edges[e].type, d) for e, d in X.squares[sid].boundary)
            assert built == shapes[ref.type_j, ref.height % k], sid
            seen.add((ref.type_j, ref.height % k))
        assert seen == set(shapes)

    def test_bad_shape_detected(self, monkeypatch):
        # one (type, residue) shape with types (2, 2, 3, 3): same-type corners
        # at positions (0, 1) and (2, 3); flags (+, +, +, -): the opposite
        # pair (0, 2) repeats its flag
        real = verifier.square_boundary

        def bad_boundary(ref):
            sides = real(ref)
            if (ref.type_j, ref.height) != (2, 1):
                return sides
            (br, _), (tr, _), (tl, _), (bl, _) = sides
            tr, tl = tr._replace(type_j=2), tl._replace(type_j=3)
            return (br, "+"), (tr, "+"), (tl, "+"), (bl, "-")

        monkeypatch.setattr(verifier, "square_boundary", bad_boundary)
        cond1, cond2 = check_structural_conditions(P42)
        assert not cond1.empty and cond1.witnesses == ((2, 1, 0, 1), (2, 1, 2, 3))
        assert not cond2.empty and cond2.witnesses == ((2, 1, 0, 2),)
        assert not verify_all(P42).all_empty


class TestVerifyAll:
    def test_report_shape_and_determinism(self):
        r1 = verify_all(P42)
        r2 = verify_all(P42)
        assert r1.all_empty
        assert len(r1.certificates) == 2 + 8 * 4
        assert len(r1.stabilizers) == 4
        assert json.dumps(r1.to_json(), sort_keys=True) == json.dumps(
            r2.to_json(), sort_keys=True
        )

    def test_quotient_order(self):
        assert verify_all(P43).quotient_order == 81

    def test_m3_not_all_empty(self):
        rep = verify_all(GroupParams(3, 2))
        assert not rep.all_empty
        assert not rep.params.hypotheses_met

    def test_order_unbounded_without_cap(self):
        params = GroupParams(6, 7)
        assert params.order > DEFAULT_SIZE_CAP
        assert verify_all(params).all_empty


@pytest.mark.parametrize("k", range(2, 10))
@pytest.mark.parametrize("m", range(3, 7))
def test_named_character_fails_exactly_in_nonempty_families(m, k):
    # the named character is each family's only character: no empty
    # family may need another one to certify it
    families = [
        c for c in verify_all(GroupParams(m, k)).certificates
        if c.case_id.startswith(("selfosc_", "interosc_"))
    ]
    assert len(families) == 8 * m
    for c in families:
        assert c.named_character_valid is c.empty, (c.case_id, c.j)
        assert c.separating_character == (c.named_character if c.empty else None)


def built_view(params, h_min, h_max):
    return validate_complex(build_quotient_complex(params, h_min, h_max))


def run_cross_validation(params, h_min, h_max, margin):
    certificates = check_self_osculation_cases(params) + check_inter_osculation_cases(params)
    return cross_validate(built_view(params, h_min, h_max), margin, certificates)


class TestCrossValidation:
    def test_small_pairs_agree(self):
        cv = run_cross_validation(P42, -4, 4, 2)
        assert cv.agreement
        assert cv.class_mismatches == []
        assert cv.inconclusive == []
        assert cv.witness_findings == []
        assert cv.violations_zero and cv.certificates_empty
        assert set(cv.case_matches) <= WITNESS_CASES
        assert sum(cv.case_matches.values()) > 0

    def test_margin_zero_never_reports_class_mismatch(self):
        cv = run_cross_validation(P42, -3, 3, 0)
        assert cv.class_mismatches == []
        # boundary osculation noise is honest disagreement, not a mismatch
        assert not cv.violations_zero
        assert cv.certificates_empty
        assert not cv.agreement

    def test_corners_read_once(self, monkeypatch):
        # the interaction report and the witness walk share one corner reader
        calls, real = [], hyperplane_engine._corners
        monkeypatch.setattr(hyperplane_engine, "_corners", lambda *a: calls.append(a) or real(*a))
        assert run_cross_validation(P42, -4, 4, 2).agreement
        assert len(calls) == 1

    def test_reuses_prebuilt_complex(self):
        ix = built_view(P42, -4, 4)
        certificates = verify_all(P42).certificates
        cv = cross_validate(ix, 2, certificates)
        assert cv.agreement
        assert cv.certificates_empty

    def test_43_with_margin_three(self):
        cv = run_cross_validation(P43, -5, 5, 3)
        assert cv.agreement
        assert cv.class_mismatches == [] and cv.inconclusive == []

    def test_classification_requires_refs(self):
        ix = validate_complex(Cells(None, ["v"], [None], [], array("l"), [], [], array("l")))
        with pytest.raises(ValueError):
            cross_validate(ix, 2, check_self_osculation_cases(P42))

    def test_empty_certificate_list_rejected(self):
        # an empty symbolic side must not pass as "all certificates empty"
        ix = built_view(GroupParams(3, 2), -4, 4)
        with pytest.raises(ValueError, match="certificates"):
            cross_validate(ix, 2, [])

    def test_witnesses_expanded_once_per_star(self, monkeypatch):
        # the report decides a clean core without walking a star; the classifier
        # expands every star of the core once
        from cubespec.hyperplane_engine import core_edges, iter_osculations

        ix = built_view(P43, -5, 5)
        walked, classified, real = fallback_stars(monkeypatch), [], verifier.classify_osculation

        def counted(cc, v, *star):
            classified.append(v)
            return real(cc, v, *star)

        monkeypatch.setattr(verifier, "classify_osculation", counted)
        certificates = check_self_osculation_cases(P43) + check_inter_osculation_cases(P43)
        cv = cross_validate(ix, 2, certificates)
        assert cv.agreement and sum(cv.case_matches.values()) > 0
        assert walked == []
        assert classified == [v for v, _ in iter_osculations(ix, core_edges(ix, -3, 3))]

    def test_every_core_witness_classifies(self):
        from cubespec.hyperplane_engine import (
            _corners,
            _star_witnesses,
            core_edges,
            iter_osculations,
        )

        ix = built_view(P43, -5, 5)
        core = core_edges(ix, -2, 2)
        cc = core_coefficients(ix, core)
        star_masks = _corners(ix, core)[0]
        witnesses = 0
        for v, edges in iter_osculations(ix, core):
            readings = classify_osculation(cc, v, edges, *star_masks(v, edges))
            pairs = list(_star_witnesses(v, edges, *star_masks(v, edges)))
            assert len(readings) == len(pairs), v
            for got, pair in zip(readings, pairs):
                assert not isinstance(got, dict), (pair, got)  # only unmatched readings are dicts
                assert got[0] in WITNESS_CASES, got
                witnesses += 1
        assert witnesses

    def test_workload_witness_count_and_order(self):
        # the cross-validate benchmark's truncation: one reading per witness, star by star
        from cubespec.hyperplane_engine import (
            _corners,
            _star_witnesses,
            core_edges,
            iter_osculations,
        )

        ix = built_view(P43, -8, 8)
        core = core_edges(ix, -5, 5)
        cc = core_coefficients(ix, core)
        star_masks = _corners(ix, core)[0]
        witnesses = 0
        for v, edges in iter_osculations(ix, core):
            n = sum(1 for _ in _star_witnesses(v, edges, *star_masks(v, edges)))
            assert len(classify_osculation(cc, v, edges, *star_masks(v, edges))) == n, v
            witnesses += n
        assert witnesses == 47_628
        cv = cross_validate(ix, 3, verify_all(P43).certificates)
        assert sum(cv.case_matches.values()) == witnesses and cv.witness_findings == []

    def test_findings_come_in_witness_order(self, monkeypatch):
        # the class of one star's last edge end is spoilt, so every equal- or
        # adjacent-type witness with that edge is unmatched; the benign witnesses
        # between them are counted, and the findings keep the witness order
        from cubespec.hyperplane_engine import (
            _corners,
            _star_witnesses,
            core_edges,
            iter_osculations,
        )

        ix = built_view(P43, -5, 5)
        core = core_edges(ix, -3, 3)
        star_masks, type_j = _corners(ix, core)[0], ix.type

        def benign(e, f):
            return (type_j[e] - type_j[f]) % 4 == 2

        def layout(v, edges):
            last, pairs = edges[-1], list(_star_witnesses(v, edges, *star_masks(v, edges)))
            spoilt = [i for i, (e, f, _) in enumerate(pairs) if last in (e, f) and not benign(e, f)]
            inside = range(spoilt[0] + 1, spoilt[-1]) if spoilt else ()
            return [pairs[i][:2] for i in spoilt], any(benign(*pairs[i][:2]) for i in inside)

        v, edges = next((v, edges) for v, edges in iter_osculations(ix, core) if layout(v, edges)[1])
        end = 2 * edges[-1] + (ix.ends[2 * edges[-1] + 1] == v)
        real_cc = verifier.core_coefficients

        def spoilt_cc(ix, core):
            cc = real_cc(ix, core)
            end_class = list(cc.end_class)
            end_class[end] = -1
            return cc._replace(end_class=end_class)

        monkeypatch.setattr(verifier, "core_coefficients", spoilt_cc)
        cv = cross_validate(ix, 2, verify_all(P43).certificates)
        eids, vids = ix.edge_ids, ix.vertex_ids
        want = [("osculation", [eids[e], eids[f]], vids[v]) for e, f in layout(v, edges)[0]]
        got = [(w["kind"], w["edges"], w["vertex"]) for w in cv.witness_findings]
        assert len(want) > 1 and got == want
        off = {how[6] for how in verifier._READ.values()}  # the reasons for no c
        assert all(w["case_id"] == "unmatched" and w["reason"] in off for w in cv.witness_findings)
        assert not cv.agreement

    def test_merged_climb_cosets_are_a_class_mismatch(self, monkeypatch):
        # the engine is made to merge the classes of two core edges of
        # nonadjacent types into one; cross-validation names that class
        ix = built_view(P42, -4, 4)
        core, real = hyperplane_engine.core_edges(ix, -2, 2), hyperplane_engine.compute_hyperplanes
        H = real(ix)
        e, f = (next(e for e, t in enumerate(ix.type) if t == j and core.mask[e]) for j in (1, 3))
        keep, merged = sorted((H.rep[e], H.rep[f]))

        def merging(ix):
            H = real(ix)
            return H._replace(rep=[keep if c == merged else c for c in H.rep])

        monkeypatch.setattr(hyperplane_engine, "compute_hyperplanes", merging)
        cv = cross_validate(ix, 2, verify_all(P42).certificates)
        assert [m["class"] for m in cv.class_mismatches] == [ix.edge_ids[keep]]
        types = [ast.literal_eval(coset)[0] for coset in cv.class_mismatches[0]["cosets"]]
        assert sorted(types) == [1, 3]
        assert not cv.agreement

    def test_split_class_is_inconclusive(self, monkeypatch):
        # the engine is made to split one core class in two at a later core
        # member: its climb coset then holds two classes, reported, not passed
        ix = built_view(P42, -4, 4)
        core, real = hyperplane_engine.core_edges(ix, -2, 2), hyperplane_engine.compute_hyperplanes
        H = real(ix)
        second = next(e for e, c in enumerate(H.rep) if c != e and core.mask[e] and core.mask[c])
        cls = H.rep[second]

        def splitting(ix):
            H = real(ix)
            rep = [second if c == cls and e >= second else c for e, c in enumerate(H.rep)]
            return H._replace(rep=rep)

        monkeypatch.setattr(hyperplane_engine, "compute_hyperplanes", splitting)
        cv = cross_validate(ix, 2, verify_all(P42).certificates)
        assert [c["classes"] for c in cv.inconclusive] == [[ix.edge_ids[cls], ix.edge_ids[second]]]
        assert cv.class_mismatches == []
        assert not cv.agreement

    def test_crossing_of_nonadjacent_types_is_a_finding(self):
        # one core square is given the second and fourth sides of another whose
        # second side is two types from its first: a crossing the case split misses
        ix = built_view(P42, -4, 4)
        core, old = hyperplane_engine.core_edges(ix, -2, 2), ix.sides
        quads = zip(*[iter(old)] * 4)
        squares = [s for s, quad in enumerate(quads) if all(core.mask[x >> 1] for x in quad)]

        def side_type(s, n):
            return ix.type[old[4 * s + n] >> 1]

        s = squares[0]
        t = next(t for t in squares if (side_type(t, 1) - side_type(s, 0)) % 4 == 2)
        sides = array("l", old)
        sides[4 * s + 1], sides[4 * s + 3] = old[4 * t + 1], old[4 * t + 3]
        cv = cross_validate(ix._replace(sides=sides, links=[]), 2, verify_all(P42).certificates)
        crossing = [w for w in cv.witness_findings if w["kind"] == "crossing_types"]
        types = [side_type(s, 0), side_type(t, 1)]
        assert crossing == [{"kind": "crossing_types", "square": ix.square_ids[s], "types": types}]
        assert cv.class_mismatches == []
        assert not cv.agreement

    @pytest.mark.parametrize("m, k, span", [(4, 2, 6), (3, 3, 8)])
    def test_reloaded_document_cross_validates_like_the_build(self, m, k, span):
        # the edge ids carry everything cross-validation reads off a build
        params = GroupParams(m, k)
        X = build_quotient_complex(params, -span, span)
        Y = complex_from_json(io.StringIO(written(X)))
        certificates = verify_all(params).certificates
        want = cross_validate(validate_complex(X), 2, certificates).to_json()
        assert cross_validate(Y, 2, certificates).to_json() == want
        assert want["span"] == [-span, span] and want["core_edge_count"] > 0

    def test_edge_not_rising_one_height_is_rejected(self):
        # a loaded document whose bottom vertex is moved a height down: the
        # edges up from it no longer rise one height, and the classifier
        # reads the base of a witness's twist off its vertex's height
        doc = json.loads(written(build_quotient_complex(P42, -3, 3)))
        bottom = next(v for v in doc["vertices"] if v["height"] == -3)
        bottom["height"] = -4
        ix = complex_from_json(io.StringIO(json.dumps(doc)))
        with pytest.raises(ValueError, match="its tail is not one height below its head"):
            cross_validate(ix, 1, verify_all(P42).certificates)

    def test_margin_without_core_rejected(self):
        ix = built_view(P42, -3, 3)
        with pytest.raises(ValueError, match="margin 4"):
            cross_validate(ix, 4, verify_all(P42).certificates)

    @pytest.mark.parametrize("null_height, margin, message", [
        (True, 1, "vertices: --margin needs height metadata on every vertex"),
        (False, 4, "--margin 4 leaves no core edges in heights [-3, 3]"),
    ])
    def test_margin_rejected_as_check_rejects_it(
        self, null_height, margin, message, tmp_path, capsys
    ):
        # check --margin and cross-validation make the core by one rule, so
        # they reject one document with one message
        doc = json.loads(written(build_quotient_complex(P42, -3, 3)))
        if null_height:
            doc["vertices"][5]["height"] = None
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path), "--margin", str(margin)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        ix = complex_from_json(io.StringIO(path.read_text()))
        with pytest.raises(ValueError) as raised:
            cross_validate(ix, margin, verify_all(P42).certificates)
        assert str(raised.value) == message
        assert type(raised.value) is (ComplexFormatError if null_height else ValueError)


@pytest.mark.slow
def test_regime_sweep_all_empty():
    # the reproduction's headline: m in 4..10 over prime k <= 13, 42 pairs,
    # 21 of them past the default cap; about 4 s in all
    for m in range(4, 11):
        for k in (2, 3, 5, 7, 11, 13):
            report = verify_all(GroupParams(m, k))
            assert report.all_empty, (m, k)
            assert all(c.named_character_valid is not False for c in report.certificates)


SLOW_PAIR_ADDRESS_SPACE = 4 * 2**30


@contextlib.contextmanager
def address_space_limit(nbytes):
    """Lower the soft RLIMIT_AS of this process to ``nbytes`` while the block runs."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(x for x in (nbytes, soft, hard) if x != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


COMPOSITE_K = pytest.mark.xfail(
    strict=True,
    reason="at composite k the symbolic quantifiers admit twists d(b)^c with b*c = 0 "
    "mod k, which are square corners, not osculations (ROADMAP.md, open item 1)",
)


@pytest.mark.parametrize(
    "m, k",
    [
        (4, 2), (4, 3), (5, 2), (6, 2),
        pytest.param(4, 5, marks=pytest.mark.slow),
        pytest.param(5, 3, marks=pytest.mark.slow),
        pytest.param(5, 5, marks=pytest.mark.slow),
        pytest.param(6, 3, marks=pytest.mark.slow),
        pytest.param(6, 5, marks=pytest.mark.slow),
        pytest.param(4, 4, marks=COMPOSITE_K),
        pytest.param(4, 6, marks=[COMPOSITE_K, pytest.mark.slow]),
    ],
)
def test_routes_agree_on_the_grid(m, k, request):
    # margin 2 clears the truncation-boundary artefacts in every pair.  A slow
    # pair runs under a soft address-space limit, so a memory regression fails
    # here as MemoryError instead of exhausting the machine
    params = GroupParams(m, k)
    slow = request.node.get_closest_marker("slow") is not None
    with address_space_limit(SLOW_PAIR_ADDRESS_SPACE) if slow else contextlib.nullcontext():
        ix = built_view(params, -(k + 4), k + 4)
        cv = cross_validate(ix, 2, verify_all(params).certificates)
    assert cv.agreement, cv.to_json()
    assert cv.violations_zero and cv.certificates_empty
