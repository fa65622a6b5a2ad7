"""Cell references of the quotient complex and its incidence rules.

A cell of the quotient complex is named by its height, its type and its
coefficient in the group C_k^m.  The rules here give the faces of a
cell from its reference alone, so the builder in ``complex_model`` and
the symbolic route in ``verifier`` read the same square shapes without
either needing the other.  This module also holds the size cap on the
group order, which both of them check, and the index tables over the
coefficients that both read: translations and coset floors.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from cubespec.coeff_group import Elem, GroupParams, constant, prefix, unit

DEFAULT_SIZE_CAP = 65536


class SizeCapError(RuntimeError):
    """Requested build exceeds the configured coefficient-group size cap."""


def check_size_cap(params: GroupParams, size_cap: int) -> None:
    """Raise ``SizeCapError`` when the group order k^m exceeds the cap."""
    if params.order > size_cap:
        raise SizeCapError(f"coefficient group order {params.order} exceeds size cap {size_cap}")


class VertexRef(NamedTuple):
    height: int
    coeff: Elem  # canonical form, see canonical_vertex


class EdgeRef(NamedTuple):
    height: int  # height of the head (top) vertex
    type_j: int
    coeff: Elem


class SquareRef(NamedTuple):
    height: int  # height of the mid layer
    type_j: int
    coeff: Elem


def canonical_vertex(g: Elem, i: int) -> VertexRef:
    """Reduce a coefficient modulo the stabiliser of a height-i vertex.

    The stabiliser is generated by the constant vector i, so its elements
    are the constant vectors with entries in multiples of gcd(i, k).  The
    canonical representative shifts the first exponent into
    [0, gcd(i, k)).  For prime k that means first exponent 0 at branching
    heights (k does not divide i) and no reduction elsewhere.
    """
    k = g.params.k
    step = math.gcd(i % k, k)
    shift = g.exps[0] - g.exps[0] % step
    if shift:
        return VertexRef(i, g * constant(g.params, -shift))
    return VertexRef(i, g)


def edge_endpoints(ref: EdgeRef) -> tuple[VertexRef, VertexRef]:
    """Tail and head of a built edge; the tail sits one height below."""
    params = ref.coeff.params
    tail = canonical_vertex(ref.coeff * prefix(params, ref.type_j - 1), ref.height - 1)
    head = canonical_vertex(ref.coeff, ref.height)
    return tail, head


def square_boundary(ref: SquareRef) -> tuple[tuple[EdgeRef, str], ...]:
    """Boundary cycle of a built square, from the bottom vertex.

    Sides come in order bottom-right (up), top-right (up), top-left
    (down), bottom-left (down); opposite pairs are positions (0, 2)
    carrying type j and (1, 3) carrying type j+1.  The last type closes
    up cyclically: squares of type m mix types m and 1, and their two
    type-1 sides pick up the constant vector of the layer above.
    """
    params = ref.coeff.params
    j, i, g = ref.type_j, ref.height, ref.coeff
    if not 1 <= j <= params.m:
        raise ValueError(f"type index must be in [1, m], got {j}")
    if j < params.m:
        br = EdgeRef(i, j, g * prefix(params, j))
        tr = EdgeRef(i + 1, j + 1, g)
        tl = EdgeRef(i + 1, j, g)
        bl = EdgeRef(i, j + 1, g * prefix(params, j - 1))
    else:
        d_above = constant(params, i + 1)
        br = EdgeRef(i, params.m, g * prefix(params, params.m))
        tr = EdgeRef(i + 1, 1, g * d_above)
        tl = EdgeRef(i + 1, params.m, g)
        bl = EdgeRef(i, 1, g * d_above * unit(params, params.m).inverse())
    return ((br, "+"), (tr, "+"), (tl, "-"), (bl, "-"))


def _translation(params: GroupParams, t: Elem) -> list[int]:
    """Index table of g -> g * t over the coefficient index.

    A coefficient's index reads its exponents as a base-k integer, first
    exponent most significant, so index order is lexicographic order.
    """
    k = params.k
    table = [0]
    for x in t.exps:
        digits = [(d + x) % k for d in range(k)]
        table = [base * k + d for base in table for d in digits]
    return table


def _coset_floor(params: GroupParams, gen: Elem) -> list[int]:
    """Least coefficient index of the coset g * <gen>, for every index g.

    In ascending order the first index met in a coset is its least, and
    walking the coset by ``gen`` labels the rest.
    """
    step = _translation(params, gen)
    least = [-1] * params.order
    for x in range(params.order):
        y = x
        while least[y] < 0:
            least[y] = x
            y = step[y]
    return least
