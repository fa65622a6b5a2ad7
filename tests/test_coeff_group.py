import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubespec.coeff_group import (
    Character,
    Elem,
    GroupParams,
    ParameterMismatchError,
    all_characters,
    constant,
    coset,
    coset_intersection,
    edge_type_stabilizer,
    find_separating_character,
    identity,
    prefix,
    separates,
    subgroup_cyclic,
    unit,
    unit_character,
)

from reference_impl import climb_coset, vertex_stabilizer

P43 = GroupParams(4, 3)
P42 = GroupParams(4, 2)


def all_elems(params):
    for exps in itertools.product(range(params.k), repeat=params.m):
        yield Elem(params, exps)


def elems(params):
    return st.builds(
        lambda exps: Elem(params, exps),
        st.tuples(*(st.integers(0, params.k - 1) for _ in range(params.m))),
    )


def subgroups(params):
    """The stabilisers the certificates use: edge types and the trivial one."""
    return st.sampled_from(
        [edge_type_stabilizer(params, j) for j in range(1, params.m + 1)]
        + [subgroup_cyclic(identity(params))]
    )


def cosets(params, sub=None):
    return st.builds(coset, elems(params), subgroups(params) if sub is None else st.just(sub))


elem_strategy = elems(P43)
coset_pair_lists = st.sampled_from([P42, P43]).flatmap(
    lambda p: st.lists(st.tuples(cosets(p), cosets(p)), min_size=1, max_size=4)
)
same_subgroup_pair_lists = st.sampled_from([P42, P43]).flatmap(
    lambda p: subgroups(p).flatmap(
        lambda sub: st.lists(st.tuples(cosets(p, sub), cosets(p, sub)), min_size=1, max_size=4)
    )
)
char_strategy = st.builds(
    lambda dual: Character(P43, dual),
    st.tuples(*(st.integers(0, 2) for _ in range(4))),
)


class TestParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GroupParams(2, 3)
        with pytest.raises(ValueError):
            GroupParams(4, 1)

    @pytest.mark.parametrize("m, k", [(4.5, 3), (4.0, 3), (4, 3.0), (True, 3), (4, True), ("4", 3)])
    def test_integers_only(self, m, k):
        with pytest.raises(TypeError, match="must be an integer"):
            GroupParams(m, k)

    def test_primality_flag(self):
        assert GroupParams(4, 3).k_prime
        assert not GroupParams(4, 4).k_prime
        assert GroupParams(4, 4).hypotheses_met is False
        assert GroupParams(3, 2).hypotheses_met is False
        assert GroupParams(4, 2).hypotheses_met

    def test_cyclic_type_index(self):
        assert P43.type_index(0) == 4
        assert P43.type_index(5) == 1
        assert P43.type_index(4) == 4


class TestElem:
    def test_mul_componentwise(self):
        a = Elem(P43, (1, 0, 2, 0))
        b = Elem(P43, (2, 2, 2, 1))
        assert (a * b).exps == (0, 2, 1, 1)

    def test_identity(self):
        g = Elem(P43, (2, 1, 0, 1))
        assert (g * identity(P43)) == g

    def test_generator_order_k(self):
        g = unit(P43, 1)
        acc = identity(P43)
        for _ in range(3):
            acc = acc * g
        assert acc.is_identity

    def test_pow_negative(self):
        assert (unit(P43, 2) ** (-1)).exps == (0, 2, 0, 0)

    def test_pow_diagonal(self):
        assert (constant(P43, 1) ** 5).exps == (2, 2, 2, 2)

    def test_pow_zero(self):
        g = Elem(P43, (1, 2, 0, 1))
        assert (g ** 0).is_identity

    def test_param_mismatch(self):
        with pytest.raises(ParameterMismatchError):
            identity(P43) * identity(P42)

    @given(elem_strategy, elem_strategy)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(elem_strategy)
    def test_pow_k_is_identity(self, a):
        assert (a ** 3).is_identity


class TestCharacter:
    def test_unit_character_values(self):
        d2 = unit_character(P43, 2)
        assert d2(unit(P43, 2)) == 1
        assert d2(unit(P43, 1)) == 0

    def test_on_diagonal(self):
        # homomorphism forces exponent i on the constant vector i
        assert unit_character(P43, 3)(constant(P43, 2)) == 2

    def test_vanishes_on_stabilizer_generator(self):
        chi = unit_character(P43, 1) * unit_character(P43, 2).inverse()
        assert chi(unit(P43, 1) * unit(P43, 2)) == 0

    @given(char_strategy, elem_strategy, elem_strategy)
    def test_homomorphism_random(self, chi, g, h):
        assert chi(g * h) == (chi(g) + chi(h)) % 3

    def test_homomorphism_exhaustive_small(self):
        params = GroupParams(4, 2)
        elems = list(all_elems(params))
        for chi in all_characters(params):
            for g in elems:
                for h in elems:
                    assert chi(g * h) == (chi(g) + chi(h)) % 2

    def test_character_group_is_dual_copy(self):
        params = GroupParams(4, 2)
        chars = list(all_characters(params))
        assert len(chars) == 16
        for chi in chars:
            assert (chi * chi).dual == (0, 0, 0, 0)


class TestSubgroups:
    def test_cyclic_enumeration(self):
        sub = subgroup_cyclic(unit(P43, 1) * unit(P43, 2))
        got = sorted(e.exps for e in sub.elements)
        assert got == [(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)]

    def test_identity_subgroup(self):
        assert len(subgroup_cyclic(identity(P43))) == 1

    def test_order_two(self):
        assert len(subgroup_cyclic(constant(P42, 1))) == 2

    def test_nonidentity_has_order_k_for_prime_k(self):
        for g in all_elems(P43):
            if not g.is_identity:
                assert len(subgroup_cyclic(g)) == 3

    def test_edge_type_stabilizer(self):
        assert edge_type_stabilizer(P43, 2).generator == unit(P43, 1) * unit(P43, 2)
        # cyclic indexing wraps j=1 back to the last generator
        assert edge_type_stabilizer(P43, 1).generator == unit(P43, 4) * unit(P43, 1)
        assert edge_type_stabilizer(P43, 4).generator == unit(P43, 3) * unit(P43, 4)
        with pytest.raises(ValueError):
            edge_type_stabilizer(P43, 5)

    def test_vertex_stabilizer(self):
        assert len(vertex_stabilizer(P43, 0)) == 1
        sub = vertex_stabilizer(P43, 1)
        assert len(sub) == 3
        assert constant(P43, 1) in sub
        assert len(vertex_stabilizer(P43, 3)) == 1


class TestCosets:
    def test_canonical_rep_is_lex_smallest(self):
        sub = edge_type_stabilizer(P43, 2)
        c = coset(Elem(P43, (2, 2, 1, 0)), sub)
        assert c.rep.exps == (0, 0, 1, 0)

    def test_intersection_disjoint(self):
        sub = edge_type_stabilizer(P43, 2)
        c1 = coset(identity(P43), sub)
        c2 = coset(unit(P43, 1), sub)
        assert coset_intersection(c1, c2) == frozenset()

    def test_intersection_self(self):
        c = coset(Elem(P43, (1, 0, 2, 1)), edge_type_stabilizer(P43, 3))
        assert coset_intersection(c, c) == c.elements()

    def test_intersection_across_subgroups(self):
        # third coordinate is 0 on the left, 1 on the right
        c1 = coset(identity(P43), edge_type_stabilizer(P43, 1))
        c2 = coset(constant(P43, 1), edge_type_stabilizer(P43, 2))
        brute = {
            e.exps
            for e in all_elems(P43)
            if e in c1 and e in c2
        }
        assert brute == set()
        assert coset_intersection(c1, c2) == frozenset()

    def test_intersection_brute_force_agreement(self):
        # independent oracle: filter the whole group by double membership
        subs = [edge_type_stabilizer(P43, j) for j in (1, 2, 3)]
        reps = [identity(P43), unit(P43, 1), constant(P43, 2)]
        for s1, s2 in itertools.product(subs, repeat=2):
            for r1, r2 in itertools.product(reps, repeat=2):
                c1, c2 = coset(r1, s1), coset(r2, s2)
                brute = frozenset(
                    e for e in all_elems(P43) if e in c1 and e in c2
                )
                assert coset_intersection(c1, c2) == brute


def reference_subgroups(params):
    """The trivial group, the edge stabilisers and the vertex stabilisers."""
    return st.sampled_from(
        [subgroup_cyclic(identity(params))]
        + [edge_type_stabilizer(params, j) for j in range(1, params.m + 1)]
        + [vertex_stabilizer(params, i) for i in range(1, params.k)]
    )


reference_coset_args = st.sampled_from(
    [GroupParams(4, 2), GroupParams(4, 3), GroupParams(3, 4), GroupParams(5, 2)]
).flatmap(
    lambda p: st.tuples(elems(p), reference_subgroups(p), elems(p), reference_subgroups(p))
)


@settings(max_examples=300, deadline=None)
@given(reference_coset_args)
def test_tuple_cosets_match_elem_reference(args):
    # from-scratch Elem arithmetic: the lex-least rep * s, and the common
    # members of the two element sets
    r1, s1, r2, s2 = args
    c1, c2 = coset(r1, s1), coset(r2, s2)
    members1 = [r1 * s for s in s1.elements]
    members2 = [r2 * s for s in s2.elements]
    assert c1.rep == min(members1, key=lambda e: e.exps) and c1.sub == s1
    assert c2.rep == min(members2, key=lambda e: e.exps) and c2.sub == s2
    assert coset_intersection(c1, c2) == frozenset(members1) & frozenset(members2)


def brute_force_separator(pairs):
    """First dual in lex order whose character is constant on each coset of
    every pair, with different constants on its two sides."""
    params = pairs[0][0].params
    for dual in itertools.product(range(params.k), repeat=params.m):
        chi = Character(params, dual)
        values = [
            ({chi(e) for e in left.elements()}, {chi(e) for e in right.elements()})
            for left, right in pairs
        ]
        if all(len(a) == 1 and len(b) == 1 and a != b for a, b in values):
            return chi
    return None


class TestSeparatingCharacter:
    def test_named_case_instance(self):
        sub = edge_type_stabilizer(P43, 2)
        chi = find_separating_character(
            [(coset(identity(P43), sub), coset(unit(P43, 1), sub))]
        )
        assert chi is not None
        assert chi.dual == (1, 2, 0, 0)

    def test_equal_cosets_unseparable(self):
        c = coset(unit(P43, 3), edge_type_stabilizer(P43, 4))
        assert find_separating_character([(c, c)]) is None

    def test_cross_subgroup_search(self):
        # exhaustive search over the 16 duals of (m=4, k=2)
        c1 = coset(identity(P42), edge_type_stabilizer(P42, 2))
        c2 = coset(constant(P42, 1), edge_type_stabilizer(P42, 3))
        chi = find_separating_character([(c1, c2)])
        assert chi is not None
        assert chi.dual == (0, 0, 0, 1)

    def test_separator_certifies_emptiness(self):
        c1 = coset(identity(P42), edge_type_stabilizer(P42, 2))
        c2 = coset(constant(P42, 1), edge_type_stabilizer(P42, 3))
        chi = find_separating_character([(c1, c2)])
        assert coset_intersection(c1, c2) == frozenset()
        assert chi(c1.sub.generator) == 0 and chi(c2.sub.generator) == 0
        assert chi(c1.rep) != chi(c2.rep)
        assert separates(chi, [(c1, c2)])

    def test_disjoint_iff_separable_same_subgroup(self):
        # disjoint and separable coincide; exhaustive for one subgroup of (4, 2)
        sub = edge_type_stabilizer(P42, 1)
        for r1, r2 in itertools.product(all_elems(P42), repeat=2):
            c1, c2 = coset(r1, sub), coset(r2, sub)
            empty = not coset_intersection(c1, c2)
            found = find_separating_character([(c1, c2)]) is not None
            assert empty == found

    def test_disjoint_pairs_without_common_separator(self):
        # each pair is disjoint and separable alone, but a character that is
        # 1 on u(1) and on u(3) is 0 on u(1)u(3): no single one splits all
        sub = edge_type_stabilizer(P42, 2)
        reps = [unit(P42, 1), unit(P42, 3), unit(P42, 1) * unit(P42, 3)]
        pairs = [(coset(identity(P42), sub), coset(r, sub)) for r in reps]
        assert all(not coset_intersection(a, b) for a, b in pairs)
        assert all(find_separating_character([p]) is not None for p in pairs)
        assert find_separating_character(pairs) is None

    def test_needs_a_pair(self):
        with pytest.raises(ValueError):
            find_separating_character([])

    @given(coset_pair_lists)
    @settings(max_examples=150, deadline=None)
    def test_search_matches_brute_force(self, pairs):
        chi = find_separating_character(pairs)
        assert chi == brute_force_separator(pairs)
        if chi is not None:
            for left, right in pairs:
                assert coset_intersection(left, right) == frozenset()
                assert chi(left.sub.generator) == 0
                assert chi(right.sub.generator) == 0
        elif len(pairs) == 1 and pairs[0][0].sub == pairs[0][1].sub:
            # one pair over one subgroup: no separator exactly when they meet
            assert coset_intersection(*pairs[0])

    @given(same_subgroup_pair_lists)
    @settings(max_examples=100, deadline=None)
    def test_meeting_pair_blocks_separation(self, pairs):
        if any(coset_intersection(left, right) for left, right in pairs):
            assert find_separating_character(pairs) is None


class TestClimbCoset:
    def test_zero_difference_is_stabilizer(self):
        c = climb_coset(P43, 2, identity(P43), 0)
        assert c == coset(identity(P43), edge_type_stabilizer(P43, 2))

    def test_rep_inside_subgroup(self):
        # for j = 2 the transport element is the stabiliser generator
        c = climb_coset(P43, 2, identity(P43), 1)
        assert c.rep.exps == (0, 0, 0, 0)
        assert prefix(P43, 2) in c

    def test_proper_coset(self):
        c = climb_coset(P43, 3, identity(P43), 1)
        sub_elems = sorted(e.exps for e in edge_type_stabilizer(P43, 3).elements)
        assert sub_elems == [(0, 0, 0, 0), (0, 1, 1, 0), (0, 2, 2, 0)]
        assert prefix(P43, 3) in c
        assert identity(P43) not in c

    @given(
        st.integers(1, 4),
        st.integers(-7, 7),
        st.integers(-7, 7),
        st.integers(0, 5),
    )
    def test_depends_only_on_difference_mod_k(self, j, a, b, shift):
        one = identity(P43)
        assert climb_coset(P43, j, one, a - b) == climb_coset(
            P43, j, one, a - b + 3 * shift
        )

    @given(st.integers(1, 4), elem_strategy, st.integers(-7, 7))
    def test_coefficient_translates_the_coset(self, j, g, height):
        c = climb_coset(P43, j, g, height)
        assert c == coset(g * climb_coset(P43, j, identity(P43), height).rep, c.sub)

    def test_invalid_type_index(self):
        with pytest.raises(ValueError):
            climb_coset(P43, 5, identity(P43), 0)


class TestSerialization:
    def test_elem_json(self):
        assert Elem(P43, (1, 2, 0, 1)).to_json() == [1, 2, 0, 1]

    def test_character_json(self):
        assert unit_character(P43, 4).to_json() == [0, 0, 0, 1]

    def test_coset_json(self):
        c = coset(unit(P43, 1), edge_type_stabilizer(P43, 2))
        doc = c.to_json()
        assert doc["rep"] == [0, 2, 0, 0]
        assert doc["subgroup_generator"] == [1, 1, 0, 0]
