import json
from dataclasses import replace

import pytest

from cubespec import verifier
from cubespec.coeff_group import (
    Character,
    Elem,
    GroupParams,
    constant,
    coset,
    coset_intersection,
    edge_type_stabilizer,
    identity,
    unit,
    unit_character,
)
from cubespec.complex_model import (
    DEFAULT_SIZE_CAP,
    SizeCapError,
    SquareComplex,
    SquareRef,
    Vertex,
    build_quotient_complex,
    complex_from_json,
    complex_to_json,
    square_boundary,
    validate_complex,
)
from cubespec.hyperplane_engine import compute_hyperplanes
from cubespec.verifier import (
    INTER_OSC_CASES,
    SELF_OSC_CASES,
    check_inter_osculation_cases,
    check_self_osculation_cases,
    check_structural_conditions,
    classify_osculation,
    core_coefficients,
    cross_validate,
    derive_stabilizer_from_loops,
    verify_all,
)

from reference_impl import built_square_refs

P42 = GroupParams(4, 2)
P43 = GroupParams(4, 3)


class TestStabilizerDerivation:
    def test_named_instances(self):
        got = derive_stabilizer_from_loops(P43, 3)
        assert got.elements == edge_type_stabilizer(P43, 3).elements
        assert (unit(P43, 2) * unit(P43, 3)) in got
        wrap = derive_stabilizer_from_loops(P43, 1)
        assert (unit(P43, 4) * unit(P43, 1)) in wrap

    def test_matches_formula_on_grid(self):
        for m in range(3, 7):
            for k in (2, 3, 5):
                params = GroupParams(m, k)
                for j in range(1, m + 1):
                    derived = derive_stabilizer_from_loops(params, j)
                    expected = edge_type_stabilizer(params, j)
                    assert derived.elements == expected.elements, (m, k, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            derive_stabilizer_from_loops(P43, 0)


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
        assert mixed.named_character == tuple(
            (unit_character(P43, 1) * unit_character(P43, 2).inverse()).dual
        )
        level = certs[("selfosc_b_eq_a_at_a", 2)]
        assert level.named_character == unit_character(P43, 3).dual

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
        assert cert.named_character == unit_character(P43, 3).dual

    def test_case2_uses_second_unit_character(self):
        certs = [c for c in check_inter_osculation_cases(P43) if c.j == 4]
        assert {c.case_id for c in certs} == {
            "interosc_2_1",
            "interosc_2_2",
            "interosc_2_3",
            "interosc_2_4",
        }
        for c in certs:
            assert c.named_character == unit_character(P43, 2).dual
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
            chi = Character(params, cert.separating_character)
            assert chi(Elem(params, cert.left_subgroup)) == 0
            assert chi(Elem(params, cert.right_subgroup)) == 0

    def test_character_splits_reps_on_rebuilt_tuples(self):
        # rebuild the first sub-case's cosets from scratch and check the
        # certificate character separates the representatives per tuple
        params = P43
        cert = next(
            c
            for c in check_inter_osculation_cases(params)
            if c.case_id == "interosc_1_1" and c.j == 2
        )
        chi = Character(params, cert.separating_character)
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
                    assert chi(left.rep) != chi(right.rep), (a, b, c_)


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
        X = build_quotient_complex(params, -(k + 1), k + 1)
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
            tr, tl = replace(tr, type_j=2), replace(tl, type_j=3)
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
        with pytest.raises(SizeCapError, match="coefficient group order 117649"):
            verify_all(params, size_cap=DEFAULT_SIZE_CAP)

    def test_fallback_search_bounded_by_cap(self):
        # without a named character an empty family falls back to the
        # search over all k^m characters, which the cap bounds
        stab = edge_type_stabilizer(P42, 1)
        pair = (coset(identity(P42), stab), coset(unit(P42, 1), stab))

        def certify(search_cap):
            return verifier._certify_family(
                "case", 1, [()], lambda t: pair, None, "q", "l", "r", search_cap
            )

        with pytest.raises(SizeCapError, match="case j=1: fallback separating-character search"):
            certify(P42.order - 1)
        cert = certify(P42.order)
        assert cert.empty and cert.separating_character is not None


def run_cross_validation(params, h_min, h_max, margin):
    X = build_quotient_complex(params, h_min, h_max)
    certificates = check_self_osculation_cases(params) + check_inter_osculation_cases(params)
    return cross_validate(X, margin, certificates)


class TestCrossValidation:
    def test_small_pairs_agree(self):
        cv = run_cross_validation(P42, -4, 4, 2)
        assert cv.agreement
        assert cv.class_mismatches == []
        assert cv.inconclusive == []
        assert cv.witness_findings == []
        assert cv.violations_zero and cv.certificates_empty
        assert set(cv.case_matches) <= set(SELF_OSC_CASES) | set(INTER_OSC_CASES) | {
            "benign_nonadjacent"
        }
        assert sum(cv.case_matches.values()) > 0

    def test_margin_zero_never_reports_class_mismatch(self):
        cv = run_cross_validation(P42, -3, 3, 0)
        assert cv.class_mismatches == []
        # boundary osculation noise is honest disagreement, not a mismatch
        assert not cv.violations_zero
        assert cv.certificates_empty
        assert not cv.agreement

    def test_reuses_prebuilt_complex(self):
        X = build_quotient_complex(P42, -4, 4)
        certificates = verify_all(P42).certificates
        cv = cross_validate(X, 2, certificates)
        assert cv.agreement
        assert cv.certificates_empty

    def test_43_with_margin_three(self):
        cv = run_cross_validation(P43, -5, 5, 3)
        assert cv.agreement
        assert cv.class_mismatches == [] and cv.inconclusive == []

    def test_classification_requires_refs(self):
        X = SquareComplex()
        X.vertices["v"] = Vertex("v")
        with pytest.raises(ValueError):
            cross_validate(X, 2, check_self_osculation_cases(P42))

    def test_empty_certificate_list_rejected(self):
        # an empty symbolic side must not pass as "all certificates empty"
        X = build_quotient_complex(GroupParams(3, 2), -4, 4)
        with pytest.raises(ValueError, match="certificates"):
            cross_validate(X, 2, [])

    def test_every_core_witness_classifies(self):
        from cubespec.hyperplane_engine import core_edges, iter_osculations

        X = build_quotient_complex(P43, -5, 5)
        ix = validate_complex(X)
        core = core_edges(ix, -2, 2)
        cc = core_coefficients(X, ix, core)
        witnesses = 0
        for e, f, v in iter_osculations(ix, core=core):
            got = classify_osculation(cc, e, f, v)
            assert got["case_id"] != "unmatched", (e, f, v, got)
            witnesses += 1
        assert witnesses

    @pytest.mark.parametrize("m, k, span", [(4, 2, 6), (3, 3, 8)])
    def test_reloaded_document_cross_validates_like_the_build(self, m, k, span):
        # the edge ids carry everything cross-validation reads off a build
        params = GroupParams(m, k)
        X = build_quotient_complex(params, -span, span)
        Y = complex_from_json(json.loads(complex_to_json(X)))
        certificates = verify_all(params).certificates
        want = cross_validate(X, 2, certificates).to_json()
        assert cross_validate(Y, 2, certificates).to_json() == want
        assert want["span"] == [-span, span] and want["core_edge_count"] > 0

    def test_margin_without_core_rejected(self):
        X = build_quotient_complex(P42, -3, 3)
        with pytest.raises(ValueError, match="margin 4"):
            cross_validate(X, 4, verify_all(P42).certificates)


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
def test_routes_agree_on_the_grid(m, k):
    # margin 2 clears the truncation-boundary artefacts in every pair
    params = GroupParams(m, k)
    X = build_quotient_complex(params, -(k + 4), k + 4)
    cv = cross_validate(X, 2, verify_all(params).certificates)
    assert cv.agreement, cv.to_json()
    assert cv.violations_zero and cv.certificates_empty
