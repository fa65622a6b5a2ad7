import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubespec.algebra_tools import (
    IntMatrix,
    abelianization_invariants,
    canonical_order_sequence,
    crossing_orbit_growth,
    is_periodic,
    smith_normal_form,
    OrderSeq,
)
from cubespec.coeff_group import GroupParams

from reference_impl import determinant, identity_matrix, matrix_product


def assert_snf_contract(M, res):
    assert matrix_product(matrix_product(res.U, M), res.V).entries == res.D.entries
    assert determinant(res.U) in (-1, 1)
    assert determinant(res.V) in (-1, 1)
    diag = [res.D.entries[i][i] for i in range(min(M.rows, M.cols))]
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail and nothing lives off the diagonal
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    for i in range(M.rows):
        for j in range(M.cols):
            if i != j:
                assert res.D.entries[i][j] == 0


matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
).map(IntMatrix.from_rows)


class TestSmithNormalForm:
    def test_relation_row(self):
        res = smith_normal_form(IntMatrix.from_rows([[2, 2, 2, 2]]))
        assert res.D.entries == ((2, 0, 0, 0),)
        assert res.invariant_factors == (2,)

    def test_identity(self):
        res = smith_normal_form(identity_matrix(3))
        assert res.invariant_factors == (1, 1, 1)
        assert res.D.entries == identity_matrix(3).entries

    def test_two_by_two(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        M = IntMatrix.from_rows([[2, 4], [6, 8]])
        res = smith_normal_form(M)
        assert res.invariant_factors == (2, 4)
        assert_snf_contract(M, res)

    def test_zero_matrix(self):
        M = IntMatrix.from_rows([[0, 0], [0, 0]])
        res = smith_normal_form(M)
        assert res.invariant_factors == ()
        assert_snf_contract(M, res)

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_contract_random(self, M):
        assert_snf_contract(M, smith_normal_form(M))

    @given(matrices, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_unimodular_moves(self, M, rng):
        base = smith_normal_form(M).invariant_factors
        rows = [list(r) for r in M.entries]
        for _ in range(4):
            i, j = rng.randrange(M.rows), rng.randrange(M.rows)
            if i != j:
                q = rng.randint(-3, 3)
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        cols_q = rng.randint(-3, 3)
        if M.cols > 1:
            for row in rows:
                row[0] += cols_q * row[-1]
        moved = IntMatrix.from_rows(rows)
        assert smith_normal_form(moved).invariant_factors == base

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])


class TestAbelianization:
    def test_hand_checked_pairs(self):
        assert abelianization_invariants(GroupParams(4, 2)) == ([2], 3)
        assert abelianization_invariants(GroupParams(6, 3)) == ([3], 5)

    def test_distinct_across_pairs(self):
        pairs = [(4, 2), (5, 2), (4, 3)]
        seen = {
            (tuple(t), r)
            for t, r in (abelianization_invariants(GroupParams(*p)) for p in pairs)
        }
        assert len(seen) == len(pairs)

class TestOrbitGrowth:
    def brute_force_member(self, m, k, n):
        # independent oracle: exhaustive search over a generous coefficient box
        g1 = [1, 1] + [0] * (m - 2)
        g2 = [0, 1, 1] + [0] * (m - 3)
        g3 = [k] * m
        bound = abs(n) + k + 2
        target = [n] + [0] * (m - 1)
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                for z in range(-bound, bound + 1):
                    vec = [x * a + y * b + z * c for a, b, c in zip(g1, g2, g3)]
                    if vec == target:
                        return True
        return False

    def test_radius_zero(self):
        assert crossing_orbit_growth(GroupParams(4, 2), 0) == 1

    def test_reference_value(self):
        assert crossing_orbit_growth(GroupParams(4, 2), 5) == 11

    def test_against_brute_force(self):
        for m, k in [(4, 2), (4, 3), (5, 2)]:
            params = GroupParams(m, k)
            # the oracle says distinct powers are never identified
            for n in range(1, 6):
                assert not self.brute_force_member(m, k, n)
            for r in range(4):
                assert crossing_orbit_growth(params, r) == 2 * r + 1

    def test_strictly_increasing(self):
        params = GroupParams(4, 2)
        counts = [crossing_orbit_growth(params, r) for r in range(10)]
        assert all(b == a + 2 for a, b in zip(counts, counts[1:]))

    def test_m3_rejected(self):
        with pytest.raises(ValueError):
            crossing_orbit_growth(GroupParams(3, 2), 1)


class TestOrderSequence:
    def test_canonical_images(self):
        params = GroupParams(4, 3)
        seq = canonical_order_sequence(params, range(-6, 7))
        for i in range(-6, 7):
            assert seq.value_at(i) == (1 if i % 3 == 0 else 3)

    def test_value_at_zero(self):
        seq = canonical_order_sequence(GroupParams(5, 2), range(-4, 5))
        assert seq.value_at(0) == 1


class TestPeriodicity:
    def test_alternating(self):
        assert is_periodic(OrderSeq(0, (1, 2, 1, 2, 1, 2)), 2) == 2

    def test_constant(self):
        assert is_periodic(OrderSeq(0, (7,) * 9), 3) == 1

    def test_canonical_sequence_period_is_k(self):
        for m, k in [(4, 2), (4, 3), (5, 3)]:
            seq = canonical_order_sequence(GroupParams(m, k), range(0, 4 * k))
            assert is_periodic(seq, k) == k

    def test_window_too_short(self):
        with pytest.raises(ValueError):
            is_periodic(OrderSeq(0, (1, 2, 1)), 2)
