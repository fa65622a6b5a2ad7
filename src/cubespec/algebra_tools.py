"""Exact integer linear algebra and the auxiliary group computations.

Smith Normal Form is computed over Python's arbitrary-precision integers
with both unimodular transforms, so U * M * V = D holds exactly and can
be re-multiplied in tests.  On top of it sit the abelianisation
invariants, the hyperplane-orbit growth count, and the torsion-sequence
periodicity probe.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from cubespec.coeff_group import GroupParams, constant


class IntMatrix(NamedTuple("IntMatrix", [("entries", tuple)])):
    __slots__ = ()

    def __new__(cls, entries: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("matrix rows must have equal length")
        return super().__new__(cls, entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


class SNFResult(NamedTuple):
    D: IntMatrix
    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "D": self.D.to_json(),
            "U": self.U.to_json(),
            "V": self.V.to_json(),
            "invariant_factors": list(self.invariant_factors),
        }


def smith_normal_form(M: IntMatrix) -> SNFResult:
    """Diagonalise M by unimodular row/column operations.

    Returns D = U * M * V with d1 | d2 | ... and trailing zeros; the
    nonzero diagonal entries are the invariant factors.  Pivoting is on
    the least absolute value, so the run is deterministic.
    """
    n, m = M.rows, M.cols
    a = [list(row) for row in M.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_sub(i, j, q):
        # row_i -= q * row_j
        if q:
            a[i] = [x - q * y for x, y in zip(a[i], a[j])]
            u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        # col_i -= q * col_j
        if q:
            for row in a:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(n, m):
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                val = abs(a[i][j])
                if val and (pivot is None or val < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        while True:
            clean = True
            for i in range(n):
                if i != t and a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        # nonzero remainder is strictly smaller; make it the pivot
                        swap_rows(t, i)
                        clean = False
            for j in range(m):
                if j != t and a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        clean = False
            if not clean:
                if a[t][t] < 0:
                    negate_row(t)
                continue
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # pull the offending row up so the pivot shrinks to the gcd
            row_sub(t, offender, -1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = IntMatrix.from_rows(a)
    factors = tuple(a[i][i] for i in range(min(n, m)) if a[i][i] != 0)
    return SNFResult(d, IntMatrix.from_rows(u), IntMatrix.from_rows(v), factors)


def abelianization_invariants(params: GroupParams) -> tuple[list[int], int]:
    """Torsion invariant factors and free rank of the abelianisation.

    The abelianisation is Z^m modulo the single relation row (k, ..., k):
    the relation at height i abelianises to (i, ..., i) when k divides i
    and to its k-th power otherwise, a multiple of that row either way.
    Its Smith form gives C_k x Z^(m-1).
    """
    row = IntMatrix.from_rows([[params.k] * params.m])
    result = smith_normal_form(row)
    torsion = [d for d in result.invariant_factors if d > 1]
    rank = params.m - len(result.invariant_factors)
    return torsion, rank


def crossing_orbit_growth(params: GroupParams, r: int) -> int:
    """Number of stabiliser-orbit classes among powers x1^i for |i| <= r.

    Two powers x1^i and x1^j are identified when (i - j) * e1 lies in the
    crossing-identification lattice, spanned by e1+e2 and e2+e3 (images of
    the two hyperplane stabilisers) and the relation vector (k, ..., k).
    For m >= 4 only n = 0 puts n*e1 in it: if n*e1 = a(e1+e2) + b(e2+e3)
    + c(k, ..., k), coordinate 4 gives c = 0, and coordinates 3, 2 and 1
    then give b = 0, a = 0 and n = 0.  So the 2r + 1 powers are pairwise
    distinct.  The count is taken in the abelianisation, so it is a lower
    bound on the orbit count.
    """
    if params.m < 4:
        raise ValueError("orbit growth needs m >= 4 (a coordinate off the lattice)")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return 2 * r + 1


class OrderSeq(NamedTuple):
    start: int
    values: tuple[int, ...]

    def value_at(self, i: int) -> int:
        return self.values[i - self.start]

    def to_json(self) -> dict:
        return {"start": self.start, "values": list(self.values)}


def canonical_order_sequence(params: GroupParams, i_range: range) -> OrderSeq:
    """Orders of unit(1)^i * ... * unit(m)^i, the constant vector d(i), over i_range."""
    values = [constant(params, i).order() for i in i_range]
    return OrderSeq(i_range.start, tuple(values))


def is_periodic(seq: OrderSeq, max_period: int) -> Optional[int]:
    """Smallest period <= max_period valid across the whole sampled window."""
    if max_period < 1:
        raise ValueError("max_period must be positive")
    n = len(seq.values)
    if n < 3 * max_period:
        raise ValueError(
            f"window too short: {n} samples cannot witness periods up to {max_period}"
        )
    for p in range(1, max_period + 1):
        if all(seq.values[i] == seq.values[i + p] for i in range(n - p)):
            return p
    return None
