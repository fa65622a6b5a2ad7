"""Exact arithmetic in the finite coefficient group C_k x ... x C_k (m copies).

Group elements are exponent vectors mod k.  Linear characters are dual
exponent vectors; a character value is the exponent of a fixed primitive
k-th root of unity, so character comparisons are exact residue
comparisons in Z/k and no floating point appears anywhere.

Type indices j live in 1..m and wrap cyclically (j = m + 1 means 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


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


@dataclass(frozen=True)
class GroupParams:
    """Parameters of the coefficient group: m cyclic factors of order k.

    Integer m >= 3 and k >= 2 are required.  Composite k and m = 3 are accepted
    for exploration, but ``hypotheses_met`` is then False and verifiers
    report honestly instead of assuming the specialness guarantee.
    """

    m: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "k"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.m < 3:
            raise ValueError(f"need m >= 3, got m={self.m}")
        if self.k < 2:
            raise ValueError(f"need k >= 2, got k={self.k}")

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


@dataclass(frozen=True)
class Elem:
    """A group element as a length-m tuple of exponents in [0, k)."""

    params: GroupParams
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exps) != self.params.m:
            raise ValueError(
                f"expected {self.params.m} exponents, got {len(self.exps)}"
            )
        k = self.params.k
        if any(not 0 <= x < k for x in self.exps):
            object.__setattr__(self, "exps", tuple(x % k for x in self.exps))

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

    @property
    def is_identity(self) -> bool:
        return all(x == 0 for x in self.exps)

    def order(self) -> int:
        k = self.params.k
        return k // math.gcd(k, *self.exps)

    def to_json(self) -> list[int]:
        return list(self.exps)


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


@dataclass(frozen=True)
class Character:
    """Linear character as a dual exponent vector; values are mu-exponents."""

    params: GroupParams
    dual: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dual) != self.params.m:
            raise ValueError(
                f"expected {self.params.m} dual exponents, got {len(self.dual)}"
            )
        k = self.params.k
        if any(not 0 <= x < k for x in self.dual):
            object.__setattr__(self, "dual", tuple(x % k for x in self.dual))

    def __call__(self, g: Elem) -> int:
        _check_params(self.params, g.params)
        return sum(d * e for d, e in zip(self.dual, g.exps)) % self.params.k

    def __mul__(self, other: "Character") -> "Character":
        _check_params(self.params, other.params)
        k = self.params.k
        return Character(
            self.params,
            tuple((a + b) % k for a, b in zip(self.dual, other.dual)),
        )

    def __pow__(self, n: int) -> "Character":
        k = self.params.k
        n %= k
        return Character(self.params, tuple((a * n) % k for a in self.dual))

    def inverse(self) -> "Character":
        return self ** (-1)

    def to_json(self) -> list[int]:
        return list(self.dual)


def unit_character(params: GroupParams, j: int) -> Character:
    """Character sending the j-th generator to mu and the rest to 1 (cyclic j)."""
    j = params.type_index(j)
    return Character(
        params, tuple(1 if i == j - 1 else 0 for i in range(params.m))
    )


def all_characters(params: GroupParams) -> Iterator[Character]:
    """All k^m characters in lexicographic order of their dual vectors."""
    for dual in itertools.product(range(params.k), repeat=params.m):
        yield Character(params, dual)


@dataclass(frozen=True)
class Subgroup:
    """Cyclic subgroup with its full element set materialised."""

    generator: Elem
    elements: frozenset[Elem]

    @property
    def params(self) -> GroupParams:
        return self.generator.params

    def __contains__(self, e: Elem) -> bool:
        return e in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def subgroup_cyclic(gen: Elem) -> Subgroup:
    elems = [identity(gen.params)]
    cur = gen
    while not cur.is_identity:
        elems.append(cur)
        cur = cur * gen
    return Subgroup(gen, frozenset(elems))


def edge_type_stabilizer(params: GroupParams, j: int) -> Subgroup:
    """Stabiliser of a type-j hyperplane: generated by unit(j-1) * unit(j)."""
    if not 1 <= j <= params.m:
        raise ValueError(f"type index must be in [1, m], got {j}")
    return subgroup_cyclic(unit(params, j - 1) * unit(params, j))


@dataclass(frozen=True)
class Coset:
    """Coset rep * sub with rep normalised to the lex-smallest member.

    Build instances through :func:`coset` so that equality of cosets is
    plain field equality of the canonical representative.
    """

    rep: Elem
    sub: Subgroup

    @property
    def params(self) -> GroupParams:
        return self.rep.params

    def __contains__(self, e: Elem) -> bool:
        return e * self.rep.inverse() in self.sub

    def elements(self) -> frozenset[Elem]:
        return frozenset(self.rep * s for s in self.sub.elements)

    def to_json(self) -> dict:
        return {
            "rep": self.rep.to_json(),
            "subgroup_generator": self.sub.generator.to_json(),
        }


def _member_exps(rep: Elem, sub: Subgroup) -> list[tuple[int, ...]]:
    """Exponent tuples of rep * s over the subgroup, made without ``Elem``s."""
    k = rep.params.k
    return [tuple((a + b) % k for a, b in zip(rep.exps, s.exps)) for s in sub.elements]


def coset(rep: Elem, sub: Subgroup) -> Coset:
    _check_params(rep.params, sub.params)
    return Coset(Elem(rep.params, min(_member_exps(rep, sub))), sub)


def coset_intersection(c1: Coset, c2: Coset) -> frozenset[Elem]:
    """Exact intersection of two cosets, enumerated as exponent tuples."""
    _check_params(c1.params, c2.params)
    small, large = (c1, c2) if len(c1.sub) <= len(c2.sub) else (c2, c1)
    inside = set(_member_exps(large.rep, large.sub))
    return frozenset(
        Elem(c1.params, e) for e in _member_exps(small.rep, small.sub) if e in inside
    )


def separates(chi: Character, pairs: Sequence[tuple[Coset, Coset]]) -> bool:
    """True when chi certifies every coset pair disjoint.

    The character must take exponent 0 on both subgroups of a pair and
    different values on its two representatives; then no element can lie
    in both cosets.
    """
    for left, right in pairs:
        if chi(left.sub.generator) != 0 or chi(right.sub.generator) != 0:
            return False
        if chi(left.rep) == chi(right.rep):
            return False
    return True


def find_separating_character(
    pairs: Sequence[tuple[Coset, Coset]],
) -> Optional[Character]:
    """First character (lex order on duals) that separates every pair.

    Returning a character proves every intersection empty; None means no
    single character certifies them all, which for one pair of cosets of
    one subgroup happens exactly when they meet.
    """
    if not pairs:
        raise ValueError("need at least one coset pair")
    for chi in all_characters(pairs[0][0].params):
        if separates(chi, pairs):
            return chi
    return None

