"""Symbolic specialness verification by finite enumeration with characters.

Every way two edges of the quotient complex can share a vertex reduces,
by translation, to finitely many residue configurations.  Each
configuration asks whether a coefficient coset intersection is empty;
a linear character that kills both subgroups and splits the two
representatives certifies emptiness exactly.

The checkers enumerate every configuration exhaustively (only residues
mod k matter, which the complex's height periodicity guarantees) and
attach the expected character of each case family, falling back to a
full lexicographic character search when that one fails.  Emptiness is
always decided by the enumeration itself, so parameter choices outside
the guarantee (m = 3, composite k) yield honest non-empty certificates
rather than errors.  Nothing is built: conditions 1 and 2 are read off
one identity square per type and height residue.

``cross_validate`` ties this symbolic route to the geometric engine: the
union-find classes must match the climb cosets on the core, and every
core interaction witness must land inside some enumerated configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from cubespec.coeff_group import (
    Character,
    Coset,
    Elem,
    GroupParams,
    Subgroup,
    climb_coset,
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
from cubespec.complex_model import (
    DEFAULT_SIZE_CAP,
    EdgeRef,
    SquareComplex,
    SquareRef,
    check_size_cap,
    parse_edge_ids,
    square_boundary,
    validate_complex,
)
from cubespec.hyperplane_engine import (
    _pair,
    compute_hyperplanes,
    core_edges,
    interaction_report,
    iter_osculations,
)

SELF_OSC_CASES = (
    "selfosc_b_eq_a_minus_1",
    "selfosc_b_eq_a_plus_1",
    "selfosc_b_eq_a_at_a",
    "selfosc_b_eq_a_at_a_minus_1",
)
INTER_OSC_CASES = tuple(
    f"interosc_{n}_{sub}" for n in (1, 2) for sub in (1, 2, 3, 4)
)


@dataclass(frozen=True)
class CaseCertificate:
    """Outcome of one exhaustively enumerated configuration family.

    ``empty`` is decided purely by enumeration.  When a separating
    character is present, it takes exponent 0 on both subgroups and
    different values on the two coset representatives of every
    enumerated tuple, which re-certifies emptiness independently.
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
        return {
            "case_id": self.case_id,
            "j": self.j,
            "quantifiers": self.quantifiers,
            "left": self.left,
            "right": self.right,
            "left_subgroup": list(self.left_subgroup)
            if self.left_subgroup is not None
            else None,
            "right_subgroup": list(self.right_subgroup)
            if self.right_subgroup is not None
            else None,
            "empty": self.empty,
            "separating_character": list(self.separating_character)
            if self.separating_character is not None
            else None,
            "named_character": list(self.named_character)
            if self.named_character is not None
            else None,
            "named_character_valid": self.named_character_valid,
            "enumerated": self.enumerated,
            "witnesses": [list(w) for w in self.witnesses],
        }


def _certify_family(
    case_id: str,
    j: int,
    tuples: Sequence[tuple],
    pair_fn: Callable[[tuple], tuple[Coset, Coset]],
    named: Optional[Character],
    quantifiers: str,
    left_desc: str,
    right_desc: str,
    search_cap: int,
) -> CaseCertificate:
    pairs = [pair_fn(t) for t in tuples]
    witnesses = []
    for t, (left, right) in zip(tuples, pairs):
        hits = coset_intersection(left, right)
        if hits:
            member = min(hits, key=lambda e: e.exps)
            witnesses.append(tuple(t) + (tuple(member.exps),))
    empty = not witnesses
    named_valid = separates(named, pairs) if named is not None and pairs else None
    separating = named if named_valid else None
    if separating is None and empty and pairs:
        what = f"{case_id} j={j}: fallback separating-character search over k^m ="
        check_size_cap(pairs[0][0].params, search_cap, what)
        separating = find_separating_character(pairs)
    sub_left = pairs[0][0].sub.generator.exps if pairs else None
    sub_right = pairs[0][1].sub.generator.exps if pairs else None
    return CaseCertificate(
        case_id=case_id,
        j=j,
        quantifiers=quantifiers,
        left=left_desc,
        right=right_desc,
        left_subgroup=sub_left,
        right_subgroup=sub_right,
        empty=empty,
        separating_character=separating.dual if separating else None,
        named_character=named.dual if named is not None else None,
        named_character_valid=named_valid,
        enumerated=len(pairs),
        witnesses=tuple(witnesses),
    )


def check_self_osculation_cases(
    params: GroupParams, search_cap: int = DEFAULT_SIZE_CAP
) -> list[CaseCertificate]:
    """Same-type edge pairs at a shared vertex: the four height cases.

    The pair sits at heights (a, b) with b in {a-1, a, a+1}; membership
    of the vertex-stabiliser twisted element in the climb coset would be
    required for the pair to be parallel.  Singletons are encoded as
    cosets of the trivial subgroup, so every test is a coset
    intersection.  Expected characters: D(j-1) * D(j)^-1 for the mixed
    heights, D(j+1) for the equal heights.
    """
    k = params.k
    trivial = subgroup_cyclic(identity(params))
    out = []
    for j in range(1, params.m + 1):
        stab = edge_type_stabilizer(params, j)
        chi_mixed = unit_character(params, j - 1) * unit_character(params, j).inverse()
        chi_equal = unit_character(params, j + 1)

        def below(t, j=j, stab=stab, trivial=trivial):
            a, c = t
            left = coset(constant(params, a - 1) ** c * prefix(params, j - 1), trivial)
            right = coset(prefix(params, j), stab)
            return left, right

        out.append(
            _certify_family(
                "selfosc_b_eq_a_minus_1",
                j,
                [(a, c) for a in range(k) for c in range(k)],
                below,
                chi_mixed,
                "a in [0,k); c in [0,k)",
                "d(a-1)^c * P(j-1)",
                "P(j) * <u(j-1)u(j)>",
                search_cap,
            )
        )

        def above(t, j=j, stab=stab, trivial=trivial):
            a, c = t
            left = coset(
                constant(params, a) ** c * prefix(params, j - 1).inverse(), trivial
            )
            right = coset(prefix(params, j).inverse(), stab)
            return left, right

        out.append(
            _certify_family(
                "selfosc_b_eq_a_plus_1",
                j,
                [(a, c) for a in range(k) for c in range(k)],
                above,
                chi_mixed,
                "a in [0,k); c in [0,k)",
                "d(a)^c * P(j-1)^-1",
                "P(j)^-1 * <u(j-1)u(j)>",
                search_cap,
            )
        )

        def level_top(t, j=j, stab=stab, trivial=trivial):
            a, c = t
            return coset(constant(params, a) ** c, trivial), coset(
                identity(params), stab
            )

        out.append(
            _certify_family(
                "selfosc_b_eq_a_at_a",
                j,
                [(a, c) for a in range(1, k) for c in range(1, k)],
                level_top,
                chi_equal,
                "a in [1,k); c in [1,k)",
                "d(a)^c",
                "<u(j-1)u(j)>",
                search_cap,
            )
        )

        def level_bottom(t, j=j, stab=stab, trivial=trivial):
            a, c = t
            return coset(constant(params, a - 1) ** c, trivial), coset(
                identity(params), stab
            )

        out.append(
            _certify_family(
                "selfosc_b_eq_a_at_a_minus_1",
                j,
                [(a, c) for a in range(k) if (a - 1) % k for c in range(1, k)],
                level_bottom,
                chi_equal,
                "a in [0,k), a-1 not 0 mod k; c in [1,k)",
                "d(a-1)^c",
                "<u(j-1)u(j)>",
                search_cap,
            )
        )
    return out


def _inter_pair_builders(params: GroupParams, j: int):
    """The four coset pairs per crossing corner, after translation.

    For j < m the crossing mixes types j and j+1; for j = m it mixes
    types m and 1 and the transported cosets absorb the extra constant
    factors, leaving the same four shapes in terms of u(1) powers.
    """
    stab_j = edge_type_stabilizer(params, j)
    if j < params.m:
        stab_next = edge_type_stabilizer(params, j + 1)
        u_next = unit(params, j + 1)
        u_j = unit(params, j)

        def shapes(t):
            a, b, c = t
            d_bc = constant(params, b) ** c
            return {
                1: (
                    coset(identity(params), stab_j),
                    coset(d_bc * u_next ** (b - a), stab_next),
                ),
                2: (
                    coset(u_j, stab_j),
                    coset(d_bc * u_next ** (b - a + 1), stab_next),
                ),
                3: (
                    coset(d_bc * u_j, stab_j),
                    coset(u_next ** (b - a), stab_next),
                ),
                4: (
                    coset(d_bc * u_next ** (b - a + 1), stab_next),
                    coset(identity(params), stab_j),
                ),
            }

        descs = {
            1: ("<u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a) * <u(j)u(j+1)>"),
            2: ("u(j) * <u(j-1)u(j)>", "d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>"),
            3: ("d(b)^c * u(j) * <u(j-1)u(j)>", "u(j+1)^(b-a) * <u(j)u(j+1)>"),
            4: ("d(b)^c * u(j+1)^(b-a+1) * <u(j)u(j+1)>", "<u(j-1)u(j)>"),
        }
        return shapes, descs
    stab_one = edge_type_stabilizer(params, 1)
    u_one = unit(params, 1)
    u_m = unit(params, params.m)

    def shapes(t):
        a, b, c = t
        d_bc = constant(params, b) ** c
        return {
            1: (
                coset(u_one ** (b - a), stab_one),
                coset(d_bc, stab_j),
            ),
            2: (
                coset(d_bc * u_m, stab_j),
                coset(u_one ** (b - a + 1), stab_one),
            ),
            3: (
                coset(u_one ** (b - a + 1), stab_one),
                coset(d_bc, stab_j),
            ),
            4: (
                coset(d_bc * u_m, stab_j),
                coset(u_one ** (b - a), stab_one),
            ),
        }

    descs = {
        1: ("u(1)^(b-a) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
        2: ("d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a+1) * <u(m)u(1)>"),
        3: ("u(1)^(b-a+1) * <u(m)u(1)>", "d(b)^c * <u(m-1)u(m)>"),
        4: ("d(b)^c * u(m) * <u(m-1)u(m)>", "u(1)^(b-a) * <u(m)u(1)>"),
    }
    return shapes, descs


def check_inter_osculation_cases(
    params: GroupParams, search_cap: int = DEFAULT_SIZE_CAP
) -> list[CaseCertificate]:
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
        shapes, descs = _inter_pair_builders(params, j)
        pairs = {t: shapes(t) for t in tuples}  # all four sub-cases at once
        for sub in (1, 2, 3, 4):
            out.append(
                _certify_family(
                    f"interosc_{case_family}_{sub}",
                    j,
                    tuples,
                    lambda t, sub=sub, pairs=pairs: pairs[t][sub],
                    named,
                    quantifiers,
                    descs[sub][0],
                    descs[sub][1],
                    search_cap,
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


@dataclass
class StabilizerCheck:
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


@dataclass
class VerifyReport:
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


def verify_all(params: GroupParams, size_cap: Optional[int] = None) -> VerifyReport:
    """Run every check for one parameter pair, without building a complex.

    Nothing here walks the k^m coefficients except the fallback
    separating-character search, so without ``size_cap`` the group order
    is not bounded and that search is bounded by ``DEFAULT_SIZE_CAP``.
    A given ``size_cap`` bounds both, as it bounds a build: a larger
    order raises ``SizeCapError``.
    """
    search_cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
    if size_cap is not None:
        check_size_cap(params, size_cap)
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
        + check_self_osculation_cases(params, search_cap)
        + check_inter_osculation_cases(params, search_cap)
    )
    return VerifyReport(params, params.order, stab_checks, certificates)


# ---------------------------------------------------------------------------
# cross-validation of the two routes


@dataclass
class CrossValidation:
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


def _discrete_log(params: GroupParams, base_height: int, r: Elem) -> Optional[int]:
    """Exponent c with d(base_height)^c = r, else None."""
    d = constant(params, base_height)
    cur = identity(params)
    for c in range(params.k):
        if cur == r:
            return c
        cur = cur * d
    return None


def classify_osculation(
    X: SquareComplex, refs: dict[str, EdgeRef], e: str, f: str, v: str
) -> dict:
    """Map a geometric osculation witness onto an enumerated configuration.

    ``refs`` holds the refs of both edges, as ``parse_edge_ids`` reads
    them off the ids of the built complex ``X``.  Returns a dict with a
    ``case_id`` (or ``benign_nonadjacent``) and the residues recovered
    from the two coefficients, or ``unmatched`` with a reason when the
    witness fits no configuration.  Unmatched witnesses are findings:
    they would mean the case split misses a source.
    """
    params = X.params
    k, m = params.k, params.m
    re_, rf = refs[e], refs[f]
    ee, ef = X.edges[e], X.edges[f]
    e_end = "tail" if ee.tail == v else "head"
    f_end = "tail" if ef.tail == v else "head"

    def fail(reason):
        return {"case_id": "unmatched", "reason": reason, "edges": [e, f], "vertex": v}

    if re_.type_j == rf.type_j:
        j = re_.type_j
        if rf.height == re_.height - 1:
            a = re_.height
            r = rf.coeff * (re_.coeff * prefix(params, j - 1)).inverse()
            c = _discrete_log(params, a - 1, r)
            if c is None:
                return fail("same-type height-drop pair off the stabiliser coset")
            return {"case_id": "selfosc_b_eq_a_minus_1", "j": j, "a": a % k, "c": c}
        if rf.height == re_.height + 1:
            a = re_.height
            r = rf.coeff * (re_.coeff * prefix(params, j - 1).inverse()).inverse()
            c = _discrete_log(params, a, r)
            if c is None:
                return fail("same-type height-rise pair off the stabiliser coset")
            return {"case_id": "selfosc_b_eq_a_plus_1", "j": j, "a": a % k, "c": c}
        if rf.height == re_.height:
            a = re_.height
            r = rf.coeff * re_.coeff.inverse()
            if e_end == "head" and f_end == "head":
                c = _discrete_log(params, a, r)
                if c is None or c % k == 0 or a % k == 0:
                    return fail("level same-type pair with trivial or missing twist")
                return {"case_id": "selfosc_b_eq_a_at_a", "j": j, "a": a % k, "c": c}
            if e_end == "tail" and f_end == "tail":
                c = _discrete_log(params, a - 1, r)
                if c is None or c % k == 0 or (a - 1) % k == 0:
                    return fail("level same-type pair with trivial or missing twist")
                return {
                    "case_id": "selfosc_b_eq_a_at_a_minus_1",
                    "j": j,
                    "a": a % k,
                    "c": c,
                }
            return fail("level same-type pair with mixed ends")
        return fail("same-type pair at height gap > 1")

    if params.type_index(rf.type_j - 1) == re_.type_j:
        pass  # e carries the lower type already
    elif params.type_index(re_.type_j - 1) == rf.type_j:
        re_, rf = rf, re_
        e_end, f_end = f_end, e_end
    else:
        return {
            "case_id": "benign_nonadjacent",
            "types": sorted((re_.type_j, rf.type_j)),
        }
    j = re_.type_j
    case_family = 1 if j < m else 2
    g, g2 = re_.coeff, rf.coeff

    def solved(sub, b, c):
        if c is None:
            return fail(f"adjacent-type corner pair off the stabiliser coset")
        if b % k == 0 or c % k == 0:
            return fail("adjacent-type pair with trivial twist survived exemption")
        return {
            "case_id": f"interosc_{case_family}_{sub}",
            "j": j,
            "b": b % k,
            "c": c % k,
        }

    if e_end == "head" and f_end == "head" and re_.height == rf.height:
        b = re_.height
        if case_family == 1:
            return solved(1, b, _discrete_log(params, b, g2 * g.inverse()))
        # type-1 partner carries d(b) on the square corner itself
        c_shift = _discrete_log(params, b, g2 * g.inverse())
        return solved(1, b, None if c_shift is None else (1 - c_shift) % k)
    if e_end == "tail" and f_end == "tail" and re_.height == rf.height:
        b = re_.height - 1
        if case_family == 1:
            r = g2 * unit(params, j) * g.inverse()
            return solved(2, b, _discrete_log(params, b, r))
        r = g2 * unit(params, m) * (g * constant(params, b + 1)).inverse()
        c_neg = _discrete_log(params, b, r)
        return solved(2, b, None if c_neg is None else (-c_neg) % k)
    if e_end == "tail" and f_end == "head" and re_.height == rf.height + 1:
        b = rf.height
        if case_family == 1:
            r = g * g2.inverse() * prefix(params, j - 1)
            return solved(3, b, _discrete_log(params, b, r))
        r = g2 * unit(params, m) * (g * constant(params, b + 1)).inverse()
        c_neg = _discrete_log(params, b, r)
        return solved(4, b, None if c_neg is None else (-c_neg) % k)
    if e_end == "head" and f_end == "tail" and rf.height == re_.height + 1:
        b = re_.height
        if case_family == 1:
            r = g2 * prefix(params, j) * g.inverse()
            return solved(4, b, _discrete_log(params, b, r))
        c_shift = _discrete_log(params, b, g2 * g.inverse())
        return solved(3, b, None if c_shift is None else (1 - c_shift) % k)
    return fail("adjacent-type pair in an unrecognised relative position")


def cross_validate(
    X: SquareComplex, margin: int, certificates: list[CaseCertificate]
) -> CrossValidation:
    """Compare the geometric and symbolic routes on one truncation.

    ``X`` is a built truncation, in memory or reloaded from its document:
    its ``params`` give the group, its vertex heights the span, and its
    edge ids the refs of the core edges.  The core is the edges whose top
    height lies ``margin`` inside either end of the span.
    ``certificates`` are the symbolic case certificates for ``X.params``.

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
    params = X.params
    if not certificates:
        raise ValueError("cross validation needs the case certificates, got none")
    ix = validate_complex(X)
    heights = ix.height
    if not heights or None in heights:
        raise ValueError("cross validation needs a height on every vertex")
    h_min, h_max = min(heights), max(heights)
    h_lo, h_hi = h_min + margin, h_max - margin
    core = core_edges(ix, h_lo, h_hi)
    if not core:
        raise ValueError(
            f"margin {margin} leaves no core edges in heights [{h_min}, {h_max}]"
        )
    n, eids, vids = len(ix.edge_ids), ix.edge_ids, ix.vertex_ids
    core_ix = [e for e in range(n) if core.mask[e]]
    refs = parse_edge_ids(X, [eids[e] for e in core_ix])
    H = compute_hyperplanes(ix)

    by_class: dict[int, set] = {}
    by_key: dict[tuple, set] = {}
    for e in core_ix:
        ref = refs[eids[e]]
        key = (ref.type_j, climb_coset(params, ref.type_j, ref.coeff, ref.height).rep.exps)
        by_class.setdefault(H.rep[e], set()).add(key)
        by_key.setdefault(key, set()).add(H.rep[e])
    mismatches = [
        {"class": eids[cls], "cosets": sorted(str(k) for k in ks)}
        for cls, ks in sorted(by_class.items())
        if len(ks) > 1
    ]
    inconclusive = [
        {"coset": str(key), "classes": [eids[c] for c in sorted(cs)]}
        for key, cs in sorted(by_key.items(), key=lambda kv: str(kv[0]))
        if len(cs) > 1
    ]

    findings = []
    case_matches: dict[str, int] = {}
    report = interaction_report(ix, H, core)
    for _, s in sorted(report.crossings.items()):
        t1 = refs[eids[ix.sides[4 * s] >> 1]].type_j
        t2 = refs[eids[ix.sides[4 * s + 1] >> 1]].type_j
        if (t1 - t2) % params.m not in (1, params.m - 1):
            findings.append(
                {"kind": "crossing_types", "square": ix.square_ids[s], "types": [t1, t2]}
            )
    for e, f, v in iter_osculations(ix, core=core):
        got = classify_osculation(X, refs, eids[e], eids[f], vids[v])
        if got["case_id"] == "unmatched":
            findings.append({"kind": "osculation", **got})
        elif got["case_id"] == "benign_nonadjacent":
            if _pair(H.rep[e], H.rep[f], n) in report.crossings:
                findings.append(
                    {"kind": "nonadjacent_crossing_pair", "edges": [eids[e], eids[f]],
                     "vertex": vids[v]}
                )
            case_matches["benign_nonadjacent"] = (
                case_matches.get("benign_nonadjacent", 0) + 1
            )
        else:
            case_matches[got["case_id"]] = case_matches.get(got["case_id"], 0) + 1
    certificates_empty = all(c.empty for c in certificates)
    return CrossValidation(
        params=params,
        span=(h_min, h_max),
        margin=margin,
        core_edge_count=len(core),
        class_mismatches=mismatches,
        inconclusive=inconclusive,
        witness_findings=findings,
        case_matches=case_matches,
        violations_zero=report.violation_count() == 0,
        certificates_empty=certificates_empty,
    )
