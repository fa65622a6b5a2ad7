"""Exact arithmetic in the finite coefficient group C_k x ... x C_k (m copies).

``Elem`` is the one vector type: a group element is its exponent vector
mod k.  The group is self-dual, so a linear character is a plain dual
exponent tuple, and its value on g is the residue dot product with
g's exponents: the exponent of a fixed primitive k-th root of unity, so
character comparisons are exact residue comparisons in Z/k and no
floating point appears anywhere.  The subgroups in use are cyclic, and
each is its generator; ``multiples`` lists the members when they are
needed.

Cosets are never normalised to a representative: two cosets x * <g> and
y * <h> meet exactly when x * y^-1 lies in <g> * <h>, so ``coset_meet``
makes that product set (the sumset of the exponent tuples) once for a
generator pair and decides each pair of exponent tuples with one lookup.

Type indices j live in 1..m and wrap cyclically (j = m + 1 means 1).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional


class ParameterMismatchError(ValueError):
    """Operands were built from different (m, k) parameter sets."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Values are NamedTuples, which need no dataclasses at start-up; a NamedTuple
# body may not define __new__, so a checked one subclasses its fields.  Each
# equals any tuple of the same values, so no set or dict mixes value types.
class GroupParams(NamedTuple("GroupParams", [("m", int), ("k", int)])):
    """Parameters of the coefficient group: m cyclic factors of order k.

    Integer m >= 3 and k >= 2 are required.  Composite k and m = 3 are accepted
    for exploration, but ``hypotheses_met`` is then False and verifiers
    report honestly instead of assuming the specialness guarantee.
    """

    __slots__ = ()

    def __new__(cls, m: int, k: int) -> "GroupParams":
        for name, value in (("m", m), ("k", k)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if m < 3:
            raise ValueError(f"need m >= 3, got m={m}")
        if k < 2:
            raise ValueError(f"need k >= 2, got k={k}")
        return super().__new__(cls, m, k)

    @property
    def k_prime(self) -> bool:
        return is_prime(self.k)

    @property
    def hypotheses_met(self) -> bool:
        """True when the specialness guarantee applies (m >= 4, k prime)."""
        return self.m >= 4 and self.k_prime

    @property
    def order(self) -> int:
        return self.k ** self.m

    def type_index(self, j: int) -> int:
        """Reduce an arbitrary integer type index into the cyclic range 1..m."""
        return (j - 1) % self.m + 1


def _check_params(a: GroupParams, b: GroupParams) -> None:
    if a != b:
        raise ParameterMismatchError(f"parameter mismatch: {a} vs {b}")


class Elem(NamedTuple("Elem", [("params", GroupParams), ("exps", tuple)])):
    """A group element as a length-m tuple of exponents in [0, k)."""

    __slots__ = ()

    def __new__(cls, params: GroupParams, exps: tuple[int, ...]) -> "Elem":
        if len(exps) != params.m:
            raise ValueError(f"expected {params.m} exponents, got {len(exps)}")
        k = params.k
        if any(not 0 <= x < k for x in exps):
            exps = tuple(x % k for x in exps)
        return super().__new__(cls, params, exps)

    def __mul__(self, other: "Elem") -> "Elem":
        _check_params(self.params, other.params)
        k = self.params.k
        return Elem(
            self.params,
            tuple((a + b) % k for a, b in zip(self.exps, other.exps)),
        )

    def __pow__(self, n: int) -> "Elem":
        k = self.params.k
        n %= k
        return Elem(self.params, tuple((a * n) % k for a in self.exps))

    def inverse(self) -> "Elem":
        return self ** (-1)

    def order(self) -> int:
        k = self.params.k
        return k // math.gcd(k, *self.exps)


def identity(params: GroupParams) -> Elem:
    return Elem(params, (0,) * params.m)


def unit(params: GroupParams, j: int) -> Elem:
    """The j-th standard generator; j is read cyclically."""
    j = params.type_index(j)
    return Elem(params, tuple(1 if i == j - 1 else 0 for i in range(params.m)))


def constant(params: GroupParams, i: int) -> Elem:
    """The constant vector (i, ..., i); product of all generators to the i."""
    return Elem(params, ((i % params.k),) * params.m)


def prefix(params: GroupParams, j: int) -> Elem:
    """Product of the first j generators, one each; j = 0 gives the identity."""
    if not 0 <= j <= params.m:
        raise ValueError(f"prefix length must be in [0, m], got {j}")
    return Elem(params, tuple(1 if i < j else 0 for i in range(params.m)))


def multiples(g: Elem) -> list[tuple[int, ...]]:
    """Exponent tuples of g^0, g^1, ..., g^(order-1): the members of <g>."""
    k = g.params.k
    return [tuple(i * x % k for x in g.exps) for i in range(g.order())]


def edge_type_stabilizer(params: GroupParams, j: int) -> Elem:
    """Generator of the stabiliser of a type-j hyperplane: unit(j-1) * unit(j)."""
    if not 1 <= j <= params.m:
        raise ValueError(f"type index must be in [1, m], got {j}")
    return unit(params, j - 1) * unit(params, j)


def coset_meet(
    left: Elem, right: Elem
) -> Callable[[tuple[int, ...], tuple[int, ...]], Optional[tuple[int, ...]]]:
    """The decider for cosets x * <left> and y * <right>, on exponent tuples.

    The returned ``meet(x, y)`` gives the least member (lex order on
    exponents) of the intersection, or None when the cosets are disjoint.
    They meet exactly when x * y^-1 lies in <left> * <right>, which is
    made once here from the two generators' ``multiples``, so deciding a
    pair is one set lookup and only a meeting pair enumerates members.
    No member of either coset is singled out as its representative.
    """
    _check_params(left.params, right.params)
    k = left.params.k
    left_exps, right_exps = multiples(left), multiples(right)
    sums = {tuple((a + b) % k for a, b in zip(g, h)) for g in left_exps for h in right_exps}

    def meet(x: tuple[int, ...], y: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if tuple((a - b) % k for a, b in zip(x, y)) not in sums:
            return None
        inside = {tuple((a + b) % k for a, b in zip(y, h)) for h in right_exps}
        members = (tuple((a + b) % k for a, b in zip(x, g)) for g in left_exps)
        return min(e for e in members if e in inside)

    return meet

