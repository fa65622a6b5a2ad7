"""Acceptance suite: every criterion exact, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import json
import time
from contextlib import contextmanager
from pathlib import Path

from cubespec.algebra_tools import (
    abelianization_invariants,
    canonical_order_sequence,
    crossing_orbit_growth,
    is_periodic,
)
from cubespec.cli import main as cli_main
from cubespec.coeff_group import GroupParams, edge_type_stabilizer, unit
from cubespec.complex_model import check_npc, complex_from_json, validate_complex
from cubespec.hyperplane_engine import compute_hyperplanes, core_edges, interaction_report
from cubespec.verifier import (
    check_inter_osculation_cases,
    check_self_osculation_cases,
    check_structural_conditions,
    cross_validate,
    derive_stabilizer_from_loops,
    verify_all,
)

from conftest import ACCEPTANCE_PAIRS
from reference_impl import complex_from_json as record_complex_from_json
from reference_impl import cyclic_closure, named_partition
from reference_impl import revalidate_one_sided, revalidate_osculation

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cubespec" / "fixtures"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_specialness(acceptance_builds):
    with criterion(1, "specialness on all five pairs"):
        timings = []
        for m, k in ACCEPTANCE_PAIRS:
            t0 = time.time()
            params = GroupParams(m, k)
            report = verify_all(params)
            assert report.all_empty, (m, k)
            ix = validate_complex(acceptance_builds[(m, k)])
            H = compute_hyperplanes(ix)
            core = core_edges(ix, -(k + 2), k + 2)
            irep = interaction_report(ix, H, core=core)
            for key in ("self_cross", "one_sided", "self_osc", "inter_osc"):
                assert irep.violations[key] == [], (m, k, key)
            elapsed = time.time() - t0
            assert elapsed < 60, (m, k, elapsed)
            timings.append(f"({m},{k}) {elapsed:.1f}s")
        print("  " + ", ".join(timings), end=" ")


def test_criterion_2_stabilizer_formula():
    with criterion(2, "loop-derived stabilisers match the formula"):
        for m in range(3, 9):
            for k in (2, 3, 5):
                params = GroupParams(m, k)
                for j in range(1, m + 1):
                    derived = derive_stabilizer_from_loops(params, j)
                    expected = edge_type_stabilizer(params, j)
                    assert cyclic_closure(derived) == cyclic_closure(expected), (m, k, j)
                    assert derived == unit(params, j - 1) * unit(params, j), (m, k, j)


def test_criterion_3_climb_coset_closed_form(acceptance_builds):
    # class/coset key bijection on core edges is equivalent to the pairwise
    # statement: a pair is parallel exactly when it shares a climb coset
    with criterion(3, "engine classes equal climb cosets on the core"):
        for m, k in [(4, 2), (4, 3)]:
            X = acceptance_builds[(m, k)]
            params = GroupParams(m, k)
            certificates = check_self_osculation_cases(params)
            certificates += check_inter_osculation_cases(params)
            cv = cross_validate(validate_complex(X), k, certificates)
            assert cv.class_mismatches == [], (m, k)
            assert cv.inconclusive == [], (m, k)
            assert cv.witness_findings == [], (m, k)
            assert cv.agreement, (m, k)
            assert cv.core_edge_count > 0


def test_criterion_4_abelianization():
    with criterion(4, "abelianisation invariants"):
        seen = set()
        for m, k in ACCEPTANCE_PAIRS:
            torsion, rank = abelianization_invariants(GroupParams(m, k))
            assert torsion == [k], (m, k)
            assert rank == m - 1, (m, k)
            seen.add((tuple(torsion), rank))
        assert len(seen) == len(ACCEPTANCE_PAIRS)


def test_criterion_5_orbit_growth():
    with criterion(5, "crossing orbit growth"):
        params = GroupParams(4, 2)
        previous = None
        for r in range(51):
            count = crossing_orbit_growth(params, r)
            assert count == 2 * r + 1, r
            if previous is not None:
                assert count > previous
            previous = count


def test_criterion_6_torsion_probe():
    with criterion(6, "torsion sequence period"):
        for m, k in ACCEPTANCE_PAIRS:
            params = GroupParams(m, k)
            seq = canonical_order_sequence(params, range(-2 * k, 2 * k + 1))
            assert is_periodic(seq, k) == k, (m, k)
            for i in range(-2 * k, 2 * k + 1):
                want = 1 if i % k == 0 else k
                assert seq.value_at(i) == want, (m, k, i)


def test_criterion_7_negative_controls():
    with criterion(7, "negative controls with re-validated witnesses"):
        # the program's view for the kernels, records for the re-validation
        text = (FIXTURES / "klein_bottle.json").read_text()
        ix, klein = complex_from_json(io.StringIO(text)), record_complex_from_json(json.loads(text))
        H = named_partition(ix, compute_hyperplanes(ix))
        assert H.one_sided == frozenset({"a"})
        assert revalidate_one_sided(klein, "a")

        text = (FIXTURES / "osculating_wedge.json").read_text()
        ix, wedge = complex_from_json(io.StringIO(text)), record_complex_from_json(json.loads(text))
        rep = interaction_report(ix, compute_hyperplanes(ix))
        H = named_partition(ix, compute_hyperplanes(ix))
        self_osc = rep.violations["self_osc"]
        assert len(self_osc) == 1
        witness = self_osc[0]
        assert H.class_of[witness["edges"][0]] == H.class_of[witness["edges"][1]]
        assert revalidate_osculation(wedge, *witness["edges"], witness["vertex"])

        npc = check_npc(complex_from_json(io.StringIO((FIXTURES / "link_triangle.json").read_text())))
        assert not npc.passed
        kinds = {f["kind"] for f in npc.failures}
        assert kinds == {"triangle"}
        nodes = {tuple(n) for n in npc.failures[0]["nodes"]}
        assert {eid for eid, _ in nodes} == {"p", "q", "r"}


def test_criterion_8_structural_conditions(acceptance_builds):
    with criterion(8, "corner types differ and all parities are zero"):
        for m, k in ACCEPTANCE_PAIRS:
            cond1, cond2 = check_structural_conditions(GroupParams(m, k))
            assert cond1.empty and cond1.witnesses == (), (m, k)
            assert cond2.empty and cond2.witnesses == (), (m, k)
            # the built complex itself: every corner, every parity
            X = acceptance_builds[(m, k)]
            for s, sid in enumerate(X.square_ids):
                types = [X.types[x >> 1] for x in X.sides[4 * s : 4 * s + 4]]
                assert all(types[n] != types[n - 1] for n in range(4)), (m, k, sid)
            H = compute_hyperplanes(validate_complex(X))
            assert set(H.parity) == {0}, (m, k)
            assert not H.one_sided, (m, k)


def test_criterion_9_determinism(tmp_path, capsys):
    def run_twice(argv):
        payloads = []
        for n in (1, 2):
            out = tmp_path / f"det{len(list(tmp_path.iterdir()))}_{n}.json"
            code = cli_main(argv + ["-o", str(out)])
            capsys.readouterr()
            assert code in (0, 1)
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], argv

    with criterion(9, "byte-identical JSON across consecutive runs"):
        for m, k in ACCEPTANCE_PAIRS:
            run_twice(["verify", "--m", str(m), "--k", str(k)])
        for m, k in [(4, 2), (5, 3)]:
            span = 2 * k + 2
            build = [
                "build", "--m", str(m), "--k", str(k),
                "--hmin", str(-span), "--hmax", str(span),
            ]
            run_twice(build)
            complex_path = tmp_path / f"complex_{m}_{k}.json"
            cli_main(build + ["-o", str(complex_path)])
            capsys.readouterr()
            run_twice(["check", str(complex_path), "--margin", str(k)])
        mat = tmp_path / "mat.json"
        mat.write_text("[[2, 2, 2, 2]]")
        run_twice(["snf", "--matrix", str(mat)])
        run_twice(["abelianize", "--m", "4", "--k", "2"])
        run_twice(["growth", "--m", "4", "--k", "2", "--radius", "5"])
        run_twice(["torsion-probe", "--m", "4", "--k", "3"])
