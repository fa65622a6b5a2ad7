"""Reference implementations that the tests compare the program against.

Each one restates a definition directly, without the program's tables
or shortcuts: cell ids from refs, the vertex stabiliser in closed form,
the square ref of a built square, and from-scratch re-checks of single
interaction witnesses.
"""

from cubespec.coeff_group import Elem, GroupParams, Subgroup, constant, subgroup_cyclic
from cubespec.complex_model import (
    EdgeRef,
    SquareComplex,
    SquareRef,
    VertexRef,
    parse_edge_ids,
)
from cubespec.hyperplane_engine import HyperplanePartition, compute_hyperplanes


def vertex_stabilizer(params: GroupParams, i: int) -> Subgroup:
    """Stabiliser of a height-i vertex: generated by the constant vector i."""
    return subgroup_cyclic(constant(params, i))


def _exps_str(e: Elem) -> str:
    return ",".join(str(x) for x in e.exps)


def vertex_id(ref: VertexRef) -> str:
    return f"v/{ref.height}/{_exps_str(ref.coeff)}"


def edge_id(ref: EdgeRef) -> str:
    return f"e/{ref.height}/{ref.type_j}/{_exps_str(ref.coeff)}"


def square_id(ref: SquareRef) -> str:
    return f"s/{ref.height}/{ref.type_j}/{_exps_str(ref.coeff)}"


def built_square_refs(X: SquareComplex) -> dict[str, SquareRef]:
    """Square refs of a built complex, read off each square's top-left side.

    ``square_boundary(SquareRef(i, j, g))`` puts ``EdgeRef(i + 1, j, g)``
    at position 2 for every type j, the wrapping type m included.  Each
    ref is checked against its square's id.
    """
    edge_refs = parse_edge_ids(X, X.edges)
    out = {}
    for sid, square in X.squares.items():
        top_left = edge_refs[square.boundary[2][0]]
        ref = SquareRef(top_left.height - 1, top_left.type_j, top_left.coeff)
        assert square_id(ref) == sid, (sid, ref)
        out[sid] = ref
    return out


def revalidate_osculation(X: SquareComplex, e: str, f: str, v: str) -> bool:
    """Re-run the osculation definition from scratch on one witness."""
    if e == f or e not in X.edges or f not in X.edges or v not in X.vertices:
        return False
    ee, ef = X.edges[e], X.edges[f]
    if v not in (ee.tail, ee.head) or v not in (ef.tail, ef.head):
        return False
    for s in X.squares.values():
        b = s.boundary
        for n in range(4):
            pair = {b[n][0], b[(n + 1) % 4][0]}
            if pair == {e, f}:
                return False
    return True


def revalidate_crossing(
    X: SquareComplex, H: HyperplanePartition, c1: str, c2: str, square: str
) -> bool:
    sides = X.squares[square].boundary
    got = {H.class_of[sides[0][0]], H.class_of[sides[1][0]]}
    return got == {c1, c2}


def revalidate_one_sided(X: SquareComplex, cls: str) -> bool:
    fresh = compute_hyperplanes(X)
    return cls in fresh.one_sided
