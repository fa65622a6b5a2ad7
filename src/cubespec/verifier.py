"""Symbolic specialness verification by finite enumeration with characters.

Every way two edges of the quotient complex can share a vertex reduces,
by translation, to finitely many residue configurations, one family per
row of ``FAMILIES``: the certificates build their representatives from
the rows, and ``classify_osculation`` reads a geometric witness back
through the same rows.  Each configuration asks whether two coefficient
cosets x * H_l and y * H_r meet; a linear character that kills both
subgroups and splits the two representatives certifies emptiness exactly.

The checkers enumerate every configuration exhaustively (only residues
mod k matter, which the complex's height periodicity guarantees).  A
case family uses one subgroup pair for all its tuples, so the sumset
H_l * H_r is made once per family and each tuple is decided by one set
lookup of x * y^-1, with x and y computed as exponent tuples; only a
tuple whose cosets meet enumerates their intersection, for its least
member.  Each family names its expected character, checked on the two
generators once and on each tuple's representatives by residue dot
products; no other character is searched for, and no certificate
walks the k^m coefficients.  Emptiness is always decided by the enumeration
itself, so parameter choices outside the guarantee (m = 3, composite k)
yield honest non-empty certificates rather than errors.  Nothing is
built: conditions 1 and 2 are read off one identity square per type and
height residue.

``cross_validate`` ties this symbolic route to the geometric engine: the
union-find classes must match the climb cosets on the core, and every
core interaction witness must land inside some enumerated configuration.
It computes on coefficient indices, the base-k numbering of the builder:
a core edge is a (height, type, coefficient index) triple, each fixed
translation of the group is an index table made once per run, a climb
coset is keyed by its least index, and the discrete log of a constant
vector is one lookup per height residue.  ``classify_osculation`` takes
a vertex star at a time: the family row of each pair of types and ends
is a table made once per run, and each edge of the star is read once.
Every core edge rises one height, so the base of every twist at a vertex
is the vertex's height, read once per star.  Every witness is still
classified on its own, by its two sides at the vertex, the diagonal
classes of its two coefficients, one discrete-log lookup and the
trivial-twist test.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from cubespec.coeff_group import (
    Elem,
    GroupParams,
    constant,
    coset_meet,
    edge_type_stabilizer,
    identity,
    multiples,
    prefix,
    unit,
)
from cubespec.incidence import SquareRef, _coset_floor, _translation, square_boundary

if TYPE_CHECKING:
    from cubespec.complex_model import ComplexIndex
    from cubespec.hyperplane_engine import Core

class CaseCertificate(NamedTuple):
    """Outcome of one exhaustively enumerated configuration family.

    ``empty`` is decided purely by enumeration.  Each witness is a
    quantified tuple followed by the exponents of the least member of
    its two cosets' intersection; no output depends on which member
    represents a coset.  ``left_subgroup`` and ``right_subgroup`` are the
    exponents of the generators of the two cyclic subgroups.  A character
    is its dual exponent tuple, and its value on g is the dot product
    with g's exponents mod k.  An osculation family's separating
    character is its named character when that one is valid: it takes
    value 0 on both generators and different values on the two coset
    representatives of every enumerated tuple, which re-certifies
    emptiness independently.
    """

    case_id: str
    j: object  # type index, or "all" for the structural scans
    quantifiers: str
    left: str
    right: str
    empty: bool
    enumerated: int
    left_subgroup: Optional[tuple[int, ...]] = None
    right_subgroup: Optional[tuple[int, ...]] = None
    separating_character: Optional[tuple[int, ...]] = None
    named_character: Optional[tuple[int, ...]] = None
    named_character_valid: Optional[bool] = None
    witnesses: tuple = ()

    def to_json(self) -> dict:
        def listed(t):
            return None if t is None else list(t)

        return {
            "case_id": self.case_id,
            "j": self.j,
            "quantifiers": self.quantifiers,
            "left": self.left,
            "right": self.right,
            "left_subgroup": listed(self.left_subgroup),
            "right_subgroup": listed(self.right_subgroup),
            "empty": self.empty,
            "separating_character": listed(self.separating_character),
            "named_character": listed(self.named_character),
            "named_character_valid": self.named_character_valid,
            "enumerated": self.enumerated,
            "witnesses": [list(w) for w in self.witnesses],
        }


class Family(NamedTuple):
    """One osculation shape: edges e and f meeting at a vertex, e of the lower type.

    Both edges have type j in a self-osculation (``wraps`` None); in an
    inter-osculation e has type j and f type j+1, read cyclically, and
    ``wraps`` says whether j = m.  ``e_tail`` and ``f_tail`` say which end
    of each edge is at the vertex, and the rest follows from them: f's
    head lies f_tail - e_tail heights above e's, and the vertex height,
    e's head height minus e_tail, is the base of the twist d(base)^c.
    ``twist_on_f`` puts the twist on f's representative rather than e's,
    ``f_left`` puts f's coset on the left, and the texts are the
    certificate's.
    """

    case_id: str
    wraps: Optional[bool]
    e_tail: int
    f_tail: int
    twist_on_f: bool
    f_left: bool
    quantifiers: str
    left: str
    right: str


_MIXED, _ABC = "a in [0,k); c in [0,k)", "a in [0,k); b in [1,k); c in [1,k)"
FAMILIES = (
    Family("selfosc_b_eq_a_minus_1", None, 1, 0, False, False, _MIXED,
           "d(a-1)^c * P(j-1)", "P(j) * <u(j-1)u(j)>"),
    Family("selfosc_b_eq_a_plus_1", None, 0, 1, False, False, _MIXED,
           "d(a)^c * P(j-1)^-1", "P(j)^-1 * <u(j-1)u(j)>"),
    Family("selfosc_b_eq_a_at_a", None, 0, 0, False, False, "a in [1,k); c in [1,k)",
           "d(a)^c", "<u(j-1)u(j)>"),
    Family("selfosc_b_eq_a_at_a_minus_1", None, 1, 1, False, False,
           "a in [0,k), a-1 not 0 mod k; c in [1,k)", "d(a-1)^c", "<u(j-1)u(j)>"),
    Family("interosc_1_1", False, 0, 0, True, False, _ABC,
           "<u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a) * <u(j)u(j+1)>"),
    Family("interosc_1_2", False, 1, 1, True, False, _ABC,
           "u(j) * <u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>"),
    Family("interosc_1_3", False, 1, 0, False, False, _ABC,
           "d(b)^c * u(j) * <u(j-1)u(j)>", "u(j+1)^(b-a) * <u(j)u(j+1)>"),
    Family("interosc_1_4", False, 0, 1, True, True, _ABC,
           "d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>", "<u(j-1)u(j)>"),
    Family("interosc_2_1", True, 0, 0, False, True, _ABC,
           "u(1)^(b-a) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
    Family("interosc_2_2", True, 1, 1, False, False, _ABC,
           "d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a+1) * <u(m)u(1)>"),
    Family("interosc_2_3", True, 0, 1, False, True, _ABC,
           "u(1)^(b-a+1) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
    Family("interosc_2_4", True, 1, 0, False, False, _ABC,
           "d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a) * <u(m)u(1)>"),
)
_ROWS = {wraps: [row for row in FAMILIES if row.wraps is wraps] for wraps in (None, False, True)}


def _reading(row: Family) -> tuple:
    """How ``classify_osculation`` reads a witness of ``row`` back.

    c comes from the ratio of the two coefficients at the vertex, which
    is d(base)^c: f over e in a self-osculation, and the twist's side over
    the other in an inter-osculation with j < m.  At j = m the type-1
    partner carries d(b) on the square corner, so f over e is d(b)^(1-c):
    with e at its head c is 1 - log(f/e), and with e at its tail
    -log(f/(e*d(b))).  At composite k these name different members of
    the same twist, and the ``Elem`` classifier fixes which.

    Gives (case id, residue minus base, read e over f, sign of c,
    constant of c, multiples of the base to take off the ratio, reason
    when there is no c, reason when the twist is trivial), the last None
    where a trivial twist is allowed.
    """
    if row.wraps is None:
        level = row.e_tail == row.f_tail
        off = "level same-type pair with trivial or missing twist" if level else (
            f"same-type height-{'drop' if row.e_tail else 'rise'} pair off the stabiliser coset"
        )
        return row.case_id, row.e_tail, False, 1, 0, 0, off, off if level else None
    c_form = (-1, 1 - row.e_tail, row.e_tail) if row.wraps else (1, 0, 0)
    return (
        row.case_id, 0, not (row.wraps or row.twist_on_f), *c_form,
        "adjacent-type corner pair off the stabiliser coset",
        "adjacent-type pair with trivial twist survived exemption",
    )


_READ = {(row.wraps, row.e_tail, row.f_tail): _reading(row) for row in FAMILIES}


def _pair_readings(m: int) -> list[list[Optional[tuple]]]:
    """The ``_READ`` row of each (e type, e at tail, f type, f at tail), at [2j-2+tail].

    None where the types are neither equal nor cyclically adjacent.  The
    row is read with e of the lower type, so an f of the lower type swaps
    the two.  Gives (case id, the lower type, the sign that turns f's
    first exponent less e's into the row's, then the rest of the
    ``_READ`` row but its flip).
    """
    out = []
    for je, e_tail in itertools.product(range(1, m + 1), (0, 1)):
        side = []
        for jf, f_tail in itertools.product(range(1, m + 1), (0, 1)):
            if je == jf:
                lower, swap, wraps = je, False, None
            elif je - jf in (1, 1 - m) or jf - je in (1, 1 - m):
                swap = je - jf in (1, 1 - m)
                lower = jf if swap else je
                wraps = lower == m
            else:
                side.append(None)
                continue
            case_id, lift, flip, *rest = _READ[(wraps, f_tail, e_tail) if swap else (wraps, e_tail, f_tail)]
            side.append((case_id, lower, -1 if swap != flip else 1, lift, *rest))
        out.append(side)
    return out


def _twist(k: int, s: int, shape: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Exponents of d(s) * V^n, for V with exponent tuple ``shape``."""
    return tuple((s + n * v) % k for v in shape)


def _certify_family(
    row: Family, j: int, tuples: Sequence[tuple], pairs: Sequence[tuple],
    gens: tuple[Elem, Elem], named: tuple[int, ...],
) -> CaseCertificate:
    """Decide one family: does e's coset meet f's, for each tuple?

    ``pairs`` holds e's and f's representatives for each tuple and
    ``gens`` their subgroups' generators; ``row.f_left`` puts f's coset
    on the left.  One ``coset_meet`` lookup decides each tuple.  The
    named character is its dual exponent tuple.  One that kills both
    generators is constant on each coset, so it is checked against the
    generators once and then compared on the two representatives of
    each tuple, all by residue dot products.
    When it fails the family has no separating character; emptiness is
    still decided by the lookups alone.
    """
    if row.f_left:
        pairs, gens = [(y, x) for x, y in pairs], gens[::-1]
    left, right = gens
    meet = coset_meet(left, right)
    witnesses = []
    for t, (x, y) in zip(tuples, pairs):
        member = meet(x, y)
        if member is not None:
            witnesses.append(t + (member,))
    k = left.params.k
    named_valid = not any(sum(map(mul, named, g.exps)) % k for g in gens) and all(
        (sum(map(mul, named, x)) - sum(map(mul, named, y))) % k for x, y in pairs
    )
    return CaseCertificate(
        case_id=row.case_id,
        j=j,
        quantifiers=row.quantifiers,
        left=row.left,
        right=row.right,
        left_subgroup=left.exps,
        right_subgroup=right.exps,
        empty=not witnesses,
        separating_character=named if named_valid else None,
        named_character=named,
        named_character_valid=named_valid,
        enumerated=len(pairs),
        witnesses=tuple(witnesses),
    )


def check_self_osculation_cases(params: GroupParams) -> list[CaseCertificate]:
    """Same-type edge pairs at a shared vertex: the four self rows of ``FAMILIES``.

    The pair sits at heights (a, b) with b in {a-1, a, a+1}; membership
    of the vertex-stabiliser twisted element in the climb coset would be
    required for the pair to be parallel.  With s = e_tail - f_tail the
    representatives are d(base*c) * P(j-1)^s, for e as a singleton (a
    coset of the trivial subgroup), and P(j)^s * Stab(j), for f, so
    every test is a coset intersection.  A level pair needs a non-trivial
    twist.  Expected characters: D(j-1) * D(j)^-1 for the mixed heights,
    D(j+1) for the equal heights.
    """
    m, k = params.m, params.k
    trivial = identity(params)
    out = []
    for j in range(1, m + 1):
        gens = (trivial, edge_type_stabilizer(params, j))
        chi_mixed = (unit(params, j - 1) * unit(params, j).inverse()).exps
        p_prev, p_j = prefix(params, j - 1).exps, prefix(params, j).exps
        for row in _ROWS[None]:
            s, level = row.e_tail - row.f_tail, row.e_tail == row.f_tail
            tuples = [
                (a, c)
                for a in range(k) if not level or (a - row.e_tail) % k
                for c in range(level, k)
            ]
            f_rep = _twist(k, 0, p_j, s)
            pairs = [(_twist(k, (a - row.e_tail) * c, p_prev, s), f_rep) for a, c in tuples]
            named = unit(params, j + 1).exps if level else chi_mixed
            out.append(_certify_family(row, j, tuples, pairs, gens, named))
    return out


def check_inter_osculation_cases(params: GroupParams) -> list[CaseCertificate]:
    """Adjacent-type pairs at a shared vertex: the eight inter rows of ``FAMILIES``.

    A crossing pair mixes types j and j+1 (cyclically); osculation
    sources sit at the four corners of the defining square, four rows for
    j < m and four for j = m, where the transported cosets absorb the
    extra constant factors.  The representatives are u(j)^e_tail * Stab(j)
    for e and u(j+1)^(b-a+f_tail) * Stab(j+1) for f, with the twist
    d(b)^c on the row's side.  Quantifiers: a unrestricted, b and c
    nonzero mod k (a branching vertex and a nontrivial stabiliser twist;
    trivial twists are square corners, not osculations).  Expected
    characters: D(j+2) for j < m, D(2) for j = m.
    """
    m, k = params.m, params.k
    tuples = [(a, b, c) for a in range(k) for b in range(1, k) for c in range(1, k)]
    out = []
    for j in range(1, m + 1):
        gens = (edge_type_stabilizer(params, j), edge_type_stabilizer(params, j % m + 1))
        u_j, u_next = unit(params, j).exps, unit(params, j + 1).exps
        named = unit(params, j + 2).exps  # read cyclically: D(2) for j = m
        f_pows = [_twist(k, 0, u_next, n) for n in range(k)]
        for row in _ROWS[j == m]:
            e_tail, f_tail = row.e_tail, row.f_tail
            if row.twist_on_f:
                e_rep = _twist(k, 0, u_j, e_tail)
                pairs = [(e_rep, _twist(k, b * c, u_next, b - a + f_tail)) for a, b, c in tuples]
            else:
                pairs = [
                    (_twist(k, b * c, u_j, e_tail), f_pows[(b - a + f_tail) % k])
                    for a, b, c in tuples
                ]
            out.append(_certify_family(row, j, tuples, pairs, gens, named))
    return out


# ---------------------------------------------------------------------------
# stabilisers from loops, structural conditions


def derive_stabilizer_from_loops(params: GroupParams, j: int) -> Elem:
    """Generator of the type-j hyperplane stabiliser, from square boundaries.

    Only squares of types j and j-1 carry type-j edges.  Dropping one
    layer through each multiplies the coefficient by that square's
    opposite-side ratio; the loop that goes down one way and up the other
    generates the stabiliser.  Nothing here is hardcoded: both ratios are
    read off ``square_boundary``.
    """
    if not 1 <= j <= params.m:
        raise ValueError(f"type index must be in [1, m], got {j}")
    base = identity(params)
    own = square_boundary(SquareRef(0, j, base))
    ratio_own = own[0][0].coeff * own[2][0].coeff.inverse()  # BR over TL
    prev_type = params.type_index(j - 1)
    other = square_boundary(SquareRef(0, prev_type, base))
    ratio_other = other[3][0].coeff * other[1][0].coeff.inverse()  # BL over TR
    return ratio_own * ratio_other.inverse()


def check_structural_conditions(params: GroupParams) -> list[CaseCertificate]:
    """Conditions 1 and 2 from the square shapes, by exhaustive scan.

    A built square's side types and direction flags depend only on its
    type j and height mod k (the builder translates the identity
    square's boundary), so the identity squares for j in [1, m] and
    r in [0, k) decide both conditions for every truncation.
    Condition 1: no corner joins two sides of one type, so no class can
    cross itself.  Condition 2: opposite sides, positions (0, 2) and
    (1, 3), carry different direction flags; ``compute_hyperplanes``
    unites such sides at parity 0, so all parities are 0 and every class
    is two-sided exactly when no shape fails.  Witnesses are
    (j, r, position, position) tuples.
    """
    m, k = params.m, params.k
    corners, flags = [], []
    for j in range(1, m + 1):
        for r in range(k):
            sides = square_boundary(SquareRef(r, j, identity(params)))
            for n in range(4):
                if sides[n][0].type_j == sides[(n + 1) % 4][0].type_j:
                    corners.append((j, r, n, (n + 1) % 4))
            for a, b in ((0, 2), (1, 3)):
                if sides[a][1] == sides[b][1]:
                    flags.append((j, r, a, b))
    scans = (
        ("cond1_corner_types", "corner n in [0,4)", 4, "corner side types", corners),
        ("cond2_orientation", "opposite pair (0,2) or (1,3)", 2, "opposite side flags", flags),
    )
    return [
        CaseCertificate(
            case_id=case_id,
            j="all",
            quantifiers=f"j in [1,m]; r in [0,k); {where}",
            left=left,
            right="must differ",
            empty=not witnesses,
            enumerated=per_square * m * k,
            witnesses=tuple(witnesses),
        )
        for case_id, where, per_square, left, witnesses in scans
    ]


# ---------------------------------------------------------------------------
# whole-parameter verification


class StabilizerCheck(NamedTuple):
    j: int
    derived: tuple[int, ...]
    expected: tuple[int, ...]
    match: bool

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "derived_generator": list(self.derived),
            "expected_generator": list(self.expected),
            "match": self.match,
        }


class VerifyReport(NamedTuple):
    params: GroupParams
    quotient_order: int
    stabilizers: list[StabilizerCheck]
    certificates: list[CaseCertificate]

    @property
    def all_empty(self) -> bool:
        return all(c.empty for c in self.certificates) and all(
            s.match for s in self.stabilizers
        )

    def to_json(self) -> dict:
        return {
            "params": {
                "m": self.params.m,
                "k": self.params.k,
                "k_prime": self.params.k_prime,
                "hypotheses_met": self.params.hypotheses_met,
            },
            "quotient_order": self.quotient_order,
            "stabilizers": [s.to_json() for s in self.stabilizers],
            "certificates": [c.to_json() for c in self.certificates],
            "all_empty": self.all_empty,
        }


def verify_all(params: GroupParams) -> VerifyReport:
    """Run every check for one parameter pair, without building a complex.

    Nothing here walks the k^m coefficients, so the group order is not
    bounded.
    """
    stab_checks = []
    for j in range(1, params.m + 1):
        derived = derive_stabilizer_from_loops(params, j)
        expected = edge_type_stabilizer(params, j)
        # one subgroup may have several generators, so compare members
        same = set(multiples(derived)) == set(multiples(expected))
        stab_checks.append(StabilizerCheck(j, derived.exps, expected.exps, same))
    certificates = (
        check_structural_conditions(params)
        + check_self_osculation_cases(params)
        + check_inter_osculation_cases(params)
    )
    return VerifyReport(params, params.order, stab_checks, certificates)


# ---------------------------------------------------------------------------
# cross-validation of the two routes


class CrossValidation(NamedTuple):
    params: GroupParams
    span: tuple[int, int]
    margin: int
    core_edge_count: int
    class_mismatches: list  # engine merged two different climb cosets
    inconclusive: list  # engine finer than the climb coset (boundary artefact)
    witness_findings: list  # interactions outside the enumerated configurations
    case_matches: dict[str, int]
    violations_zero: bool
    certificates_empty: bool

    @property
    def agreement(self) -> bool:
        return (
            not self.class_mismatches
            and not self.inconclusive
            and not self.witness_findings
            and self.violations_zero == self.certificates_empty
        )

    def to_json(self) -> dict:
        return {
            "params": {"m": self.params.m, "k": self.params.k},
            "span": list(self.span),
            "margin": self.margin,
            "core_edge_count": self.core_edge_count,
            "class_mismatches": self.class_mismatches,
            "inconclusive": self.inconclusive,
            "witness_findings": self.witness_findings,
            "case_matches": dict(sorted(self.case_matches.items())),
            "violations_zero": self.violations_zero,
            "certificates_empty": self.certificates_empty,
            "agreement": self.agreement,
        }


class CoreCoefficients(NamedTuple):
    """The core edges of a built truncation on coefficient indices.

    A coefficient's index reads its exponents base k, first exponent most
    significant, as the builder numbers them.  Core edge e has coefficient
    index ``coeff[e]``, read at the ascending core ``edges``; its type and
    head height are the view's, ``ix.type[e]`` and ``ix.height[ix.ends[2*e]]``,
    which its id agrees with, and its tail lies one height below its head.
    The tables are made once per run.  Edge end 2e + (1 at its tail) holds
    the coefficient of e there, g at the head and g * P(j-1) at the tail:
    ``end_class`` gives the least index in its coset of the diagonal
    subgroup <d(1)>, and ``end_first`` its first exponent.  ``log[b][r]``
    is the least c in [0, k) with c * b = r mod k, or None.
    ``read[2j-2+t][2j'-2+t']`` is the ``_READ`` row of a type-j edge (at its
    tail if t) against a type-j' edge (at its tail if t'), as
    ``_pair_readings`` gives it.
    """

    ix: ComplexIndex
    edges: list[int]
    coeff: list[int]
    end_class: list[int]
    end_first: list[int]
    log: list[list[Optional[int]]]
    read: list[list[Optional[tuple]]]


def core_coefficients(ix: ComplexIndex, core: Core) -> CoreCoefficients:
    """Read the core edges of a built complex off their ids and make the tables.

    A built edge's id is ``e/<height>/<type>/<exps>``, so a complex
    loaded from its document indexes like the build.  Equal exponents
    are read once.  Raises ``ValueError`` when ``params`` is null, and
    names the id when it does not parse, is not written as the builder
    writes it, has a type or exponents out of range for ``params``, or
    disagrees with its edge's type or head height, or when its edge's
    tail is not one height below its head.  A build passes every check.
    """
    params = ix.params
    if params is None:
        raise ValueError("edge ids name refs only in a built complex; params is null")
    m, k, n = params.m, params.k, len(ix.edge_ids)
    edges = [e for e in range(n) if core.mask[e]]
    coeff = [0] * n
    up = [_translation(params, prefix(params, i)) for i in range(m)]
    diag = _coset_floor(params, constant(params, 1))
    top = params.order // k  # the weight of the first exponent
    end_class, end_first = [0] * 2 * n, [0] * 2 * n
    index_of: dict[str, int] = {}  # exponents as written -> coefficient index
    for e in edges:
        eid = ix.edge_ids[e]
        parts = eid.split("/")
        try:
            h, j, text = int(parts[1]), int(parts[2]), parts[3]
            c = index_of.get(text)
            exps = tuple(map(int, text.split(","))) if c is None else ()
        except (IndexError, ValueError):
            raise ValueError(f"edge id {eid!r}: expected e/<height>/<type>/<exps>") from None
        if eid != f"e/{h}/{j}/{text}" or c is None and text != ",".join(map(str, exps)):
            raise ValueError(f"edge id {eid!r}: not written as the builder writes ids")
        if not 1 <= j <= m or c is None and (len(exps) != m or not all(0 <= x < k for x in exps)):
            raise ValueError(f"edge id {eid!r}: type or exponents out of range for {params}")
        if c is None:
            c = index_of[text] = sum(x * k**p for p, x in enumerate(reversed(exps)))
        if ix.type[e] != j or ix.height[ix.ends[2 * e]] != h:
            raise ValueError(f"edge id {eid!r}: no stored edge of that type and head height")
        if ix.height[ix.ends[2 * e + 1]] != h - 1:
            raise ValueError(f"edge id {eid!r}: its tail is not one height below its head")
        coeff[e] = c
        for x, y in ((2 * e, c), (2 * e + 1, up[j - 1][c])):
            end_class[x], end_first[x] = diag[y], y // top
    return CoreCoefficients(
        ix, edges, coeff, end_class, end_first,
        log=[
            [next((c for c in range(k) if c * b % k == r), None) for r in range(k)]
            for b in range(k)
        ],
        read=_pair_readings(m),
    )


def _climb_keys(cc: CoreCoefficients) -> list[int]:
    """Climb-coset key of each core edge: the least index in g * P(j)^h * Stab(j).

    The climb coset of a type-j edge with coefficient g and head height h
    keys its hyperplane: climbing a layer through a square multiplies the
    coefficient by P(j)^-1 modulo Stab(j).  Only h mod k matters, so an
    edge reads the P(j)^h table of its type and height residue, then the
    least-in-coset table of Stab(j).
    """
    ix = cc.ix
    params, k, heights, ends = ix.params, ix.params.k, ix.height, ix.ends
    keys = [(ix.type[e], heights[ends[2 * e]] % k) for e in cc.edges]
    residues = set(keys)
    least = {j: _coset_floor(params, edge_type_stabilizer(params, j)) for j, _ in residues}
    shift = {(j, r): _translation(params, prefix(params, j) ** r) for j, r in residues}
    tables = {(j, r): [least[j][x] for x in shift[j, r]] for j, r in residues}
    return [tables[key][cc.coeff[e]] for key, e in zip(keys, cc.edges)]


def _unmatched(cc: CoreCoefficients, reason: str, e: int, f: int, v: int) -> dict:
    eids, vertex = cc.ix.edge_ids, cc.ix.vertex_ids[v]
    return {"case_id": "unmatched", "reason": reason, "edges": [eids[e], eids[f]], "vertex": vertex}


def classify_osculation(
    cc: CoreCoefficients, v: int, edges: list[int], bits: list[int], near: list[int]
) -> list:
    """Map the osculation witnesses of one vertex star onto enumerated configurations.

    ``edges`` is the star of core edges at vertex ``v``, ascending, and
    ``bits`` and ``near`` its square-corner masks as ``hyperplane_engine``
    makes them: the witnesses are the pairs e before f in ``edges`` that
    meet at no corner, in ``_star_witnesses`` order.  Returns one reading
    per witness, in that order: (case id, j, residue, c) for an
    enumerated configuration, ("benign_nonadjacent", e, f) for types
    neither equal nor adjacent, or a dict with case id ``unmatched`` and a
    reason when the witness fits no configuration.  Unmatched witnesses
    are findings: they would mean the case split misses a source.

    Each edge of the star is read once: its type and end at ``v`` pick its
    side of ``cc.read``, and its end the class and first exponent of its
    coefficient at ``v``.  Every core edge rises one height, so the base
    of every twist in the star is the height of ``v``, and its row of the
    discrete-log table is looked up once.  Each witness is then
    classified on its own: its two sides give its row of ``FAMILIES``.
    The ratio of the two coefficients is a constant vector exactly when
    their classes are equal; then c is one lookup in the discrete-log
    row of the base, at the difference of their first exponents, and a
    row that needs a twist rejects a trivial one.
    """
    ix = cc.ix
    k, ends, types = ix.params.k, ix.ends, ix.type
    end_class, end_first, read = cc.end_class, cc.end_first, cc.read
    base = ix.height[v]
    log = cc.log[base % k]
    star = []
    for e, b, met in zip(edges, bits, near):
        at = ends[2 * e + 1] == v
        x = 2 * e + at
        star.append((e, b, met, 2 * types[e] - 2 + at, end_class[x], end_first[x]))
    out = []
    for i, (e, _, met, side, ce, fe) in enumerate(star):
        row = read[side]
        for f, b, _, f_side, cf, ff in star[i + 1:]:
            if met & b:
                continue
            how = row[f_side]
            if how is None:
                out.append(("benign_nonadjacent", e, f))
                continue
            case_id, j, sign_f, lift, sign, turn, shift, off, trivial = how
            c = log[(sign_f * (ff - fe) - shift * base) % k] if ce == cf else None
            if c is None:
                out.append(_unmatched(cc, off, e, f, v))
                continue
            c = (turn + sign * c) % k
            if trivial and (c == 0 or base % k == 0):
                out.append(_unmatched(cc, trivial, e, f, v))
                continue
            out.append((case_id, j, (base + lift) % k, c))
    return out


def cross_validate(
    ix: ComplexIndex, margin: int, certificates: list[CaseCertificate]
) -> CrossValidation:
    """Compare the geometric and symbolic routes on one truncation.

    ``ix`` is the view of a built truncation, in memory or loaded from
    its document: its ``params`` give the group, its vertex heights the
    span, and its edge ids the refs of the core edges.  The core is
    ``margin_core(ix, margin)``, as for ``check --margin``: the edges
    whose top height lies ``margin`` inside either end of the span.
    ``certificates`` are the symbolic case certificates for ``ix.params``.

    (i) On core edges, union-find classes must coincide with the climb
    cosets; classes finer than a coset are boundary artefacts and are
    reported as inconclusive, never as violations.  (ii) Every core
    crossing must mix cyclically adjacent types and every core
    osculation witness must classify into an enumerated configuration.
    The crossing check is what makes the case split complete, so a
    ``benign_nonadjacent`` witness is only counted: its two classes can
    cross only at a core square, whose first two sides are core edges of
    those classes, and with no class mismatch these carry the witness's
    two nonadjacent types, so the square is already a crossing finding.
    (iii) Core violation counts must be zero exactly when all
    certificates are empty.  An empty certificate list, a complex
    without ``params`` or heights, and an empty core raise
    ``ValueError`` instead of passing vacuously.
    """
    # the geometric route is imported here, so that a plain ``verify``,
    # which runs the certificates alone, does not load it
    from cubespec.hyperplane_engine import (
        _corners,
        compute_hyperplanes,
        interaction_report,
        iter_osculations,
        margin_core,
    )

    params = ix.params
    if not certificates:
        raise ValueError("cross validation needs the case certificates, got none")
    core = margin_core(ix, margin)
    eids = ix.edge_ids
    H = compute_hyperplanes(ix)
    corners = _corners(ix, core)  # one corner reader for the report and the walk below
    report = interaction_report(ix, H, core, corners)
    cc = core_coefficients(ix, core)

    by_class: dict[int, set] = {}
    by_key: dict[tuple, set] = {}
    for e, c in zip(cc.edges, _climb_keys(cc)):
        key = (ix.type[e], c)
        by_class.setdefault(H.rep[e], set()).add(key)
        by_key.setdefault(key, set()).add(H.rep[e])

    def named(key: tuple[int, int]) -> str:  # as (type, exponents of the least member)
        j, c = key
        return str((j, tuple(c // params.k**i % params.k for i in reversed(range(params.m)))))

    mismatches = [
        {"class": eids[cls], "cosets": sorted(named(key) for key in ks)}
        for cls, ks in sorted(by_class.items())
        if len(ks) > 1
    ]
    inconclusive = [
        {"coset": named(key), "classes": [eids[c] for c in sorted(cs)]}
        for key, cs in sorted(by_key.items(), key=lambda kv: named(kv[0]))
        if len(cs) > 1
    ]

    findings = []
    case_matches: dict[str, int] = {}
    for _, s in sorted(report.crossings.items()):
        t1 = ix.type[ix.sides[4 * s] >> 1]
        t2 = ix.type[ix.sides[4 * s + 1] >> 1]
        if (t1 - t2) % params.m not in (1, params.m - 1):
            findings.append(
                {"kind": "crossing_types", "square": ix.square_ids[s], "types": [t1, t2]}
            )
    for v, edges in iter_osculations(ix, core):
        for got in classify_osculation(cc, v, edges, *corners[0](v, edges)):
            if got.__class__ is dict:
                findings.append({"kind": "osculation", **got})
            else:
                case_matches[got[0]] = case_matches.get(got[0], 0) + 1
    return CrossValidation(
        params=params, span=(min(ix.height), max(ix.height)), margin=margin,
        core_edge_count=len(core), class_mismatches=mismatches, inconclusive=inconclusive,
        witness_findings=findings, case_matches=case_matches,
        violations_zero=report.violation_count() == 0,
        certificates_empty=all(c.empty for c in certificates),
    )
