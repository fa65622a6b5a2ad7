"""Symbolic specialness verification by finite enumeration with characters.

Every way two edges of the quotient complex can share a vertex reduces,
by translation, to finitely many residue configurations.  Each
configuration asks whether two coefficient cosets x * H_l and y * H_r
meet; a linear character that kills both subgroups and splits the two
representatives certifies emptiness exactly.

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
vector is one lookup per height residue.  Every witness is still
classified on its own.
"""

from __future__ import annotations

from operator import mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from cubespec.coeff_group import (
    Character,
    Elem,
    GroupParams,
    Subgroup,
    constant,
    coset_meet,
    edge_type_stabilizer,
    identity,
    prefix,
    subgroup_cyclic,
    unit,
    unit_character,
)
from cubespec.incidence import SquareRef, _translation, square_boundary

if TYPE_CHECKING:
    from cubespec.complex_model import ComplexIndex
    from cubespec.hyperplane_engine import Core

SELF_OSC_CASES = (
    "selfosc_b_eq_a_minus_1",
    "selfosc_b_eq_a_plus_1",
    "selfosc_b_eq_a_at_a",
    "selfosc_b_eq_a_at_a_minus_1",
)
INTER_OSC_CASES = tuple(
    f"interosc_{n}_{sub}" for n in (1, 2) for sub in (1, 2, 3, 4)
)


class CaseCertificate(NamedTuple):
    """Outcome of one exhaustively enumerated configuration family.

    ``empty`` is decided purely by enumeration.  Each witness is a
    quantified tuple followed by the exponents of the least member of
    its two cosets' intersection; no output depends on which member
    represents a coset.  An osculation family's separating character is
    its named character when that one is valid: it takes exponent 0 on
    both subgroup generators and different values on the two coset
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


def _twist(k: int, s: int, shape: tuple[int, ...], n: int = 1) -> tuple[int, ...]:
    """Exponents of d(s) * V^n, for V with exponent tuple ``shape``."""
    return tuple((s + n * v) % k for v in shape)


def _certify_family(
    case_id: str,
    j: int,
    tuples: Sequence[tuple],
    subgroups: tuple[Subgroup, Subgroup],
    reps: Callable[..., tuple[tuple[int, ...], tuple[int, ...]]],
    named: Character,
    quantifiers: str,
    left_desc: str,
    right_desc: str,
) -> CaseCertificate:
    """Decide one family: the cosets x * H_l and y * H_r for (x, y) = reps(*t).

    One ``coset_meet`` lookup decides each tuple.  A character that kills
    both subgroups is constant on each coset, so the named character is
    checked against the generators once and then compared on the two
    representatives of each tuple by residue dot products.  When it fails
    the family has no separating character; emptiness is still decided by
    the lookups alone.
    """
    left, right = subgroups
    meet = coset_meet(left, right)
    pairs = [reps(*t) for t in tuples]
    witnesses = []
    for t, (x, y) in zip(tuples, pairs):
        member = meet(x, y)
        if member is not None:
            witnesses.append(t + (member,))
    k, dual = left.params.k, named.dual
    named_valid = (
        named(left.generator) == 0
        and named(right.generator) == 0
        and all((sum(map(mul, dual, x)) - sum(map(mul, dual, y))) % k for x, y in pairs)
    )
    return CaseCertificate(
        case_id=case_id,
        j=j,
        quantifiers=quantifiers,
        left=left_desc,
        right=right_desc,
        left_subgroup=left.generator.exps,
        right_subgroup=right.generator.exps,
        empty=not witnesses,
        separating_character=dual if named_valid else None,
        named_character=dual,
        named_character_valid=named_valid,
        enumerated=len(pairs),
        witnesses=tuple(witnesses),
    )


def check_self_osculation_cases(params: GroupParams) -> list[CaseCertificate]:
    """Same-type edge pairs at a shared vertex: the four height cases.

    The pair sits at heights (a, b) with b in {a-1, a, a+1}; membership
    of the vertex-stabiliser twisted element in the climb coset would be
    required for the pair to be parallel.  Singletons are encoded as
    cosets of the trivial subgroup, so every test is a coset
    intersection.  Expected characters: D(j-1) * D(j)^-1 for the mixed
    heights, D(j+1) for the equal heights.
    """
    m, k = params.m, params.k
    trivial = subgroup_cyclic(identity(params))
    zero = identity(params).exps
    mixed = [(a, c) for a in range(k) for c in range(k)]
    out = []
    for j in range(1, m + 1):
        subs = (trivial, edge_type_stabilizer(params, j))
        chi_mixed = unit_character(params, j - 1) * unit_character(params, j).inverse()
        chi_equal = unit_character(params, j + 1)
        p_prev, p_j = prefix(params, j - 1).exps, prefix(params, j).exps
        p_j_inv = prefix(params, j).inverse().exps
        families = (
            (
                "selfosc_b_eq_a_minus_1",
                mixed,
                lambda a, c: (_twist(k, (a - 1) * c, p_prev), p_j),
                chi_mixed,
                "a in [0,k); c in [0,k)",
                "d(a-1)^c * P(j-1)",
                "P(j) * <u(j-1)u(j)>",
            ),
            (
                "selfosc_b_eq_a_plus_1",
                mixed,
                lambda a, c: (_twist(k, a * c, p_prev, -1), p_j_inv),
                chi_mixed,
                "a in [0,k); c in [0,k)",
                "d(a)^c * P(j-1)^-1",
                "P(j)^-1 * <u(j-1)u(j)>",
            ),
            (
                "selfosc_b_eq_a_at_a",
                [(a, c) for a in range(1, k) for c in range(1, k)],
                lambda a, c: (_twist(k, a * c, zero), zero),
                chi_equal,
                "a in [1,k); c in [1,k)",
                "d(a)^c",
                "<u(j-1)u(j)>",
            ),
            (
                "selfosc_b_eq_a_at_a_minus_1",
                [(a, c) for a in range(k) if (a - 1) % k for c in range(1, k)],
                lambda a, c: (_twist(k, (a - 1) * c, zero), zero),
                chi_equal,
                "a in [0,k), a-1 not 0 mod k; c in [1,k)",
                "d(a-1)^c",
                "<u(j-1)u(j)>",
            ),
        )
        for case_id, tuples, reps, named, quantifiers, left, right in families:
            out.append(
                _certify_family(case_id, j, tuples, subs, reps, named, quantifiers, left, right)
            )
    return out


def _inter_families(params: GroupParams, j: int):
    """The four coset pairs per crossing corner, after translation.

    The crossing mixes types j and j+1, read cyclically, so for j = m it
    mixes types m and 1 and the transported cosets absorb the extra
    constant factors, leaving the same four shapes in terms of u(1)
    powers.  Each sub-case gives its two subgroups and the exponent
    tuples of its two representatives for a tuple (a, b, c).
    """
    k = params.k
    nxt = params.type_index(j + 1)
    lo, hi = edge_type_stabilizer(params, j), edge_type_stabilizer(params, nxt)
    u_j, u_next = unit(params, j).exps, unit(params, nxt).exps
    zero = identity(params).exps
    if j < params.m:
        return {
            1: (
                (lo, hi),
                lambda a, b, c: (zero, _twist(k, b * c, u_next, b - a)),
                ("<u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a) * <u(j)u(j+1)>"),
            ),
            2: (
                (lo, hi),
                lambda a, b, c: (u_j, _twist(k, b * c, u_next, b - a + 1)),
                ("u(j) * <u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>"),
            ),
            3: (
                (lo, hi),
                lambda a, b, c: (_twist(k, b * c, u_j), _twist(k, 0, u_next, b - a)),
                ("d(b)^c * u(j) * <u(j-1)u(j)>", "u(j+1)^(b-a) * <u(j)u(j+1)>"),
            ),
            4: (
                (hi, lo),
                lambda a, b, c: (_twist(k, b * c, u_next, b - a + 1), zero),
                ("d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>", "<u(j-1)u(j)>"),
            ),
        }
    return {
        1: (
            (hi, lo),
            lambda a, b, c: (_twist(k, 0, u_next, b - a), _twist(k, b * c, zero)),
            ("u(1)^(b-a) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
        ),
        2: (
            (lo, hi),
            lambda a, b, c: (_twist(k, b * c, u_j), _twist(k, 0, u_next, b - a + 1)),
            ("d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a+1) * <u(m)u(1)>"),
        ),
        3: (
            (hi, lo),
            lambda a, b, c: (_twist(k, 0, u_next, b - a + 1), _twist(k, b * c, zero)),
            ("u(1)^(b-a+1) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
        ),
        4: (
            (lo, hi),
            lambda a, b, c: (_twist(k, b * c, u_j), _twist(k, 0, u_next, b - a)),
            ("d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a) * <u(m)u(1)>"),
        ),
    }


def check_inter_osculation_cases(params: GroupParams) -> list[CaseCertificate]:
    """Adjacent-type pairs at a shared vertex: eight sub-case families.

    A crossing pair mixes types j and j+1 (cyclically); osculation
    sources sit at the four corners of the defining square.  Quantifiers:
    a unrestricted, b and c nonzero mod k (a branching vertex and a
    nontrivial stabiliser twist; trivial twists are square corners, not
    osculations).  Expected characters: D(j+2) for j < m, D(2) for j = m.
    """
    k = params.k
    tuples = [
        (a, b, c)
        for a in range(k)
        for b in range(1, k)
        for c in range(1, k)
    ]
    quantifiers = "a in [0,k); b in [1,k); c in [1,k)"
    out = []
    for j in range(1, params.m + 1):
        case_family = 1 if j < params.m else 2
        named = (
            unit_character(params, j + 2)
            if case_family == 1
            else unit_character(params, 2)
        )
        for sub, (subs, reps, (left, right)) in _inter_families(params, j).items():
            out.append(
                _certify_family(
                    f"interosc_{case_family}_{sub}",
                    j,
                    tuples,
                    subs,
                    reps,
                    named,
                    quantifiers,
                    left,
                    right,
                )
            )
    return out


# ---------------------------------------------------------------------------
# stabilisers from loops, structural conditions


def derive_stabilizer_from_loops(params: GroupParams, j: int) -> Subgroup:
    """Hyperplane stabiliser for type j computed from square boundaries.

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
    return subgroup_cyclic(ratio_own * ratio_other.inverse())


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
        stab_checks.append(
            StabilizerCheck(
                j,
                derived.generator.exps,
                expected.generator.exps,
                derived.elements == expected.elements,
            )
        )
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
    significant, as the builder numbers them.  Core edge e is (``height[e]``,
    ``type_j[e]``, ``coeff[e]``), read at the ascending core ``edges``.  The
    tables are made once per run: ``up[i]`` maps g to g * P(i) for i in
    [0, m], where P(m) = d(1); ``diag`` maps g to the least index in its
    coset of the diagonal subgroup <d(1)>; ``log[b][r]`` is the least c in
    [0, k) with c * b = r mod k, or None.
    """

    ix: ComplexIndex
    params: GroupParams
    edges: list[int]
    height: list[int]
    type_j: list[int]
    coeff: list[int]
    up: list[list[int]]
    diag: list[int]
    log: list[list[Optional[int]]]


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


def core_coefficients(ix: ComplexIndex, core: Core) -> CoreCoefficients:
    """Read the core edges of a built complex off their ids and make the tables.

    A built edge's id is ``e/<height>/<type>/<exps>``, so a complex
    loaded from its document indexes like the build.  Equal exponents
    are read once.  Raises ``ValueError`` when ``params`` is null, and
    names the id when it does not parse, is not written as the builder
    writes it, has a type or exponents out of range for ``params``, or
    disagrees with its edge's type or head height.
    """
    params = ix.params
    if params is None:
        raise ValueError("edge ids name refs only in a built complex; params is null")
    m, k, n = params.m, params.k, len(ix.edge_ids)
    edges = [e for e in range(n) if core.mask[e]]
    height, type_j, coeff = [0] * n, [0] * n, [0] * n
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
        if ix.type[e] != j or ix.height[ix.head[e]] != h:
            raise ValueError(f"edge id {eid!r}: no stored edge of that type and head height")
        height[e], type_j[e], coeff[e] = h, j, c
    return CoreCoefficients(
        ix, params, edges, height, type_j, coeff,
        up=[_translation(params, prefix(params, i)) for i in range(m + 1)],
        diag=_coset_floor(params, constant(params, 1)),
        log=[
            [next((c for c in range(k) if c * b % k == r), None) for r in range(k)]
            for b in range(k)
        ],
    )


def _climb_keys(cc: CoreCoefficients) -> list[int]:
    """Climb-coset key of each core edge: the least index in g * P(j)^h * Stab(j).

    The climb coset of a type-j edge with coefficient g and head height h
    keys its hyperplane: climbing a layer through a square multiplies the
    coefficient by P(j)^-1 modulo Stab(j).  Only h mod k matters, so an
    edge reads the P(j)^h table of its type and height residue, then the
    least-in-coset table of Stab(j).
    """
    params, k = cc.params, cc.params.k
    residues = {(cc.type_j[e], cc.height[e] % k) for e in cc.edges}
    least = {j: _coset_floor(params, edge_type_stabilizer(params, j).generator) for j, _ in residues}
    shift = {(j, r): _translation(params, prefix(params, j) ** r) for j, r in residues}
    tables = {(j, r): [least[j][x] for x in shift[j, r]] for j, r in residues}
    return [tables[cc.type_j[e], cc.height[e] % k][cc.coeff[e]] for e in cc.edges]


def _log(cc: CoreCoefficients, x: int, y: int, base: int, offset: int = 0) -> Optional[int]:
    """Least c in [0, k) with x * y^-1 = d(base)^c * d(offset), else None.

    The ratio is constant exactly when x and y share their diagonal
    coset, and is then the difference of their first exponents.
    """
    if cc.diag[x] != cc.diag[y]:
        return None
    k, top = cc.params.k, len(cc.diag) // cc.params.k  # top: the weight of the first exponent
    return cc.log[base % k][(x // top - y // top - offset) % k]


def _unmatched(cc: CoreCoefficients, reason: str, e: int, f: int, v: int) -> dict:
    eids, vertex = cc.ix.edge_ids, cc.ix.vertex_ids[v]
    return {"case_id": "unmatched", "reason": reason, "edges": [eids[e], eids[f]], "vertex": vertex}


def classify_osculation(cc: CoreCoefficients, e: int, f: int, v: int) -> dict:
    """Map a geometric osculation witness onto an enumerated configuration.

    ``e`` and ``f`` are core edges of ``cc`` meeting at vertex ``v``, by
    index.  Returns a dict with a ``case_id`` (or ``benign_nonadjacent``)
    and the residues recovered from the two coefficients, or ``unmatched``
    with a reason when the witness fits no configuration.  Unmatched
    witnesses are findings: they would mean the case split misses a source.

    Each case asks whether a ratio x * y^-1 is a twist d(b)^c, where x
    and y are the two coefficient indices after the case's shifts by
    prefixes, one ``up`` lookup each (a unit u(j) is P(j) * P(j-1)^-1).
    The ratio is a constant vector exactly when x and y have the same
    least index modulo the diagonal subgroup; then c is one lookup in
    the discrete-log table of the height residue b mod k, at the
    difference of their first exponents, which a factor d(b+1) shifts.
    """
    k, m, up = cc.params.k, cc.params.m, cc.up
    he, je, g = cc.height[e], cc.type_j[e], cc.coeff[e]
    hf, jf, g2 = cc.height[f], cc.type_j[f], cc.coeff[f]
    e_tail, f_tail = cc.ix.tail[e] == v, cc.ix.tail[f] == v

    if je == jf:
        j, a = je, he
        if hf == a - 1 or hf == a + 1:
            drop = hf == a - 1
            c = _log(cc, g2, up[j - 1][g], a - 1) if drop else _log(cc, up[j - 1][g2], g, a)
            if c is None:
                reason = f"same-type height-{'drop' if drop else 'rise'} pair off the stabiliser coset"
                return _unmatched(cc, reason, e, f, v)
            case_id = "selfosc_b_eq_a_minus_1" if drop else "selfosc_b_eq_a_plus_1"
            return {"case_id": case_id, "j": j, "a": a % k, "c": c}
        if hf != a:
            return _unmatched(cc, "same-type pair at height gap > 1", e, f, v)
        if e_tail != f_tail:
            return _unmatched(cc, "level same-type pair with mixed ends", e, f, v)
        base = a - 1 if e_tail else a
        c = _log(cc, g2, g, base)
        if c is None or c == 0 or base % k == 0:
            return _unmatched(cc, "level same-type pair with trivial or missing twist", e, f, v)
        case_id = "selfosc_b_eq_a_at_a_minus_1" if e_tail else "selfosc_b_eq_a_at_a"
        return {"case_id": case_id, "j": j, "a": a % k, "c": c}

    if je - jf in (1, 1 - m):  # f carries the lower type: read the pair from f
        he, je, g, e_tail, hf, jf, g2, f_tail = hf, jf, g2, f_tail, he, je, g, e_tail
    elif jf - je not in (1, 1 - m):
        return {"case_id": "benign_nonadjacent", "types": sorted((je, jf))}
    j, wraps = je, je == m
    # for j = m the type-1 partner carries d(b) on the square corner, and
    # g2 * u(m) * g^-1 carries d(b+1): both turn the twist around
    if e_tail == f_tail and he == hf:
        if e_tail:
            sub, b = 2, he - 1
            c = _log(cc, up[j][g2], up[j - 1][g], b, b + 1 if wraps else 0)
        else:
            sub, b = 1, he
            c = _log(cc, g2, g, b)
        if wraps and c is not None:
            c = (1 - c if sub == 1 else -c) % k
    elif e_tail and not f_tail and he == hf + 1:
        b = hf
        if wraps:
            sub, c = 4, _log(cc, up[j][g2], up[j - 1][g], b, b + 1)
            c = None if c is None else -c % k
        else:
            sub, c = 3, _log(cc, up[j - 1][g], g2, b)
    elif f_tail and not e_tail and hf == he + 1:
        b = he
        if wraps:
            sub, c = 3, _log(cc, g2, g, b)
            c = None if c is None else (1 - c) % k
        else:
            sub, c = 4, _log(cc, up[j][g2], g, b)
    else:
        return _unmatched(cc, "adjacent-type pair in an unrecognised relative position", e, f, v)
    if c is None:
        return _unmatched(cc, "adjacent-type corner pair off the stabiliser coset", e, f, v)
    if b % k == 0 or c == 0:
        return _unmatched(cc, "adjacent-type pair with trivial twist survived exemption", e, f, v)
    return {"case_id": f"interosc_{2 if wraps else 1}_{sub}", "j": j, "b": b % k, "c": c}


def cross_validate(
    ix: ComplexIndex, margin: int, certificates: list[CaseCertificate]
) -> CrossValidation:
    """Compare the geometric and symbolic routes on one truncation.

    ``ix`` is the view of a built truncation, in memory or loaded from
    its document: its ``params`` give the group, its vertex heights the
    span, and its edge ids the refs of the core edges.  The core is the
    edges whose top height lies ``margin`` inside either end of the span.
    ``certificates`` are the symbolic case certificates for ``ix.params``.

    (i) On core edges, union-find classes must coincide with the climb
    cosets; classes finer than a coset are boundary artefacts and are
    reported as inconclusive, never as violations.  (ii) Every core
    crossing must mix cyclically adjacent types and every core
    osculation witness must classify into an enumerated configuration.
    (iii) Core violation counts must be zero exactly when all
    certificates are empty.  An empty certificate list, a complex
    without ``params`` or heights, and an empty core raise
    ``ValueError`` instead of passing vacuously.
    """
    # the geometric route is imported here, so that a plain ``verify``,
    # which runs the certificates alone, does not load it
    from cubespec.hyperplane_engine import (
        _pair,
        compute_hyperplanes,
        core_edges,
        interaction_report,
        iter_osculations,
        square_corner_pairs,
    )

    params = ix.params
    if not certificates:
        raise ValueError("cross validation needs the case certificates, got none")
    heights = ix.height
    if not heights or None in heights:
        raise ValueError("cross validation needs a height on every vertex")
    h_min, h_max = min(heights), max(heights)
    h_lo, h_hi = h_min + margin, h_max - margin
    core = core_edges(ix, h_lo, h_hi)
    if not core:
        raise ValueError(f"margin {margin} leaves no core edges in heights [{h_min}, {h_max}]")
    n, eids, vids = len(ix.edge_ids), ix.edge_ids, ix.vertex_ids
    cc = core_coefficients(ix, core)
    H = compute_hyperplanes(ix)

    by_class: dict[int, set] = {}
    by_key: dict[tuple, set] = {}
    for e, c in zip(cc.edges, _climb_keys(cc)):
        key = (cc.type_j[e], c)
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
    corner_pairs = square_corner_pairs(ix)  # one exemption set for both walks
    report = interaction_report(ix, H, core, corner_pairs)
    for _, s in sorted(report.crossings.items()):
        t1 = cc.type_j[ix.sides[4 * s] >> 1]
        t2 = cc.type_j[ix.sides[4 * s + 1] >> 1]
        if (t1 - t2) % params.m not in (1, params.m - 1):
            findings.append(
                {"kind": "crossing_types", "square": ix.square_ids[s], "types": [t1, t2]}
            )
    for e, f, v in iter_osculations(ix, corner_pairs, core):
        got = classify_osculation(cc, e, f, v)
        case_id = got["case_id"]
        if case_id == "unmatched":
            findings.append({"kind": "osculation", **got})
            continue
        if case_id == "benign_nonadjacent" and _pair(H.rep[e], H.rep[f], n) in report.crossings:
            findings.append(
                {"kind": "nonadjacent_crossing_pair", "edges": [eids[e], eids[f]], "vertex": vids[v]}
            )
        case_matches[case_id] = case_matches.get(case_id, 0) + 1
    return CrossValidation(
        params=params, span=(h_min, h_max), margin=margin, core_edge_count=len(core),
        class_mismatches=mismatches, inconclusive=inconclusive, witness_findings=findings,
        case_matches=case_matches, violations_zero=report.violation_count() == 0,
        certificates_empty=all(c.empty for c in certificates),
    )
