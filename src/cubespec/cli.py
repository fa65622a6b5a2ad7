"""Command-line front end with stable exit codes for CI use.

Exit codes: 0 clean, 1 findings (violations, non-empty certificates, or
curvature failures), 2 usage or input error, 3 resource cap exceeded.
Outputs are deterministic: fixed iteration orders and no timestamps
unless ``--stamp`` opts in.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from typing import Optional

from cubespec import __version__
from cubespec.algebra_tools import (
    IntMatrix,
    abelianization_invariants,
    canonical_order_sequence,
    crossing_orbit_growth,
    is_periodic,
    smith_normal_form,
)
from cubespec.coeff_group import GroupParams, ParameterMismatchError
from cubespec.complex_model import (
    DEFAULT_SIZE_CAP,
    ComplexFormatError,
    SizeCapError,
    SpanError,
    build_quotient_complex,
    check_npc,
    check_size_cap,
    complex_from_json,
    complex_to_json,
)
from cubespec.hyperplane_engine import (
    compute_hyperplanes,
    core_edges,
    dot_export,
    interaction_report,
    report_to_json,
)
from cubespec.verifier import cross_validate, verify_all

SIZE_CAP_ENV = "CUBESPEC_SIZE_CAP"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# a build lacks the squares past its two end layers, and the osculations
# that this leaves unexempted touch only edges within 1 height of an end
BUILT_MARGIN = 2


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _stamp() -> dict:
    return {
        "tool": f"cubespec {__version__}",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(doc: dict, args) -> None:
    if args.stamp:
        doc = {**doc, "stamp": _stamp()}
    text = _dump(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.json and not args.output:
        sys.stdout.write(text)


def _size_cap(args, default: Optional[int]) -> Optional[int]:
    """``--cap``, else ``$CUBESPEC_SIZE_CAP``, else ``default``."""
    if args.cap is not None:
        return args.cap
    env = os.environ.get(SIZE_CAP_ENV)
    if env is not None:
        try:
            return _at_least(1)(env)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{SIZE_CAP_ENV}: {exc}") from None
    return default


def _params(args) -> GroupParams:
    return GroupParams(args.m, args.k)


def cmd_build(args) -> int:
    params = _params(args)
    size_cap = _size_cap(args, DEFAULT_SIZE_CAP)
    X = build_quotient_complex(params, args.hmin, args.hmax, size_cap=size_cap)
    if args.stamp:
        X.extra["stamp"] = _stamp()
    text = complex_to_json(X)
    counts = X.counts()
    summary = (
        f"vertices={counts['vertices']} edges={counts['edges']} "
        f"squares={counts['squares']}"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return EXIT_CLEAN


def cmd_check(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ComplexFormatError(f"invalid JSON: {exc}") from exc
    X = complex_from_json(doc)
    del doc
    ix, built = X.index, X.params is not None
    del X  # the view holds the ids; the cell records can go
    heights = ix.height
    margin = args.margin
    if margin is None:
        margin = BUILT_MARGIN if built and heights and None not in heights else 0
    core = None
    if margin:
        if None in heights:
            raise ComplexFormatError(
                "vertices: --margin needs height metadata on every vertex"
            )
        lo, hi = min(heights), max(heights)
        core = core_edges(ix, lo + margin, hi - margin)
        if not core:
            raise ValueError(
                f"--margin {margin} leaves no core edges in heights [{lo}, {hi}]"
            )
    npc = check_npc(ix)
    H = compute_hyperplanes(ix)
    report = interaction_report(ix, H, core)
    out = {"npc": npc.to_json()}
    out.update(report_to_json(ix, H, report))
    out["clean"] = npc.passed and report.violation_count() == 0
    _emit(out, args)
    if not args.json:
        print(f"classes={H.n_classes} one_sided={len(H.one_sided)}")
        counts = " ".join(
            f"{key}={len(report.violations[key])}"
            for key in ("self_cross", "one_sided", "self_osc", "inter_osc")
        )
        print(f"violations: {counts}")
        print(f"npc={'pass' if npc.passed else 'fail'}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_export(ix, report))
    return EXIT_CLEAN if out["clean"] else EXIT_FINDINGS


def cmd_verify(args) -> int:
    params = _params(args)
    size_cap = _size_cap(args, None)
    margin = args.margin if args.margin is not None else BUILT_MARGIN
    if not args.cross_validate:
        for flag in ("hmin", "hmax", "margin"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} only applies with --cross-validate")
    else:
        if args.hmin is None or args.hmax is None:
            raise ValueError("--cross-validate needs --hmin and --hmax")
        if args.hmin + margin > args.hmax - margin:
            raise ValueError(
                f"--margin {margin} leaves no core in heights "
                f"[{args.hmin}, {args.hmax}]"
            )
        build_cap = DEFAULT_SIZE_CAP if size_cap is None else size_cap
        check_size_cap(params, build_cap)
    report = verify_all(params, size_cap=size_cap)
    doc = report.to_json()
    ok = report.all_empty
    if args.cross_validate:
        X = build_quotient_complex(params, args.hmin, args.hmax, size_cap=build_cap)
        cv = cross_validate(X, margin, report.certificates)
        doc["cross_validation"] = cv.to_json()
        ok = ok and cv.agreement
    _emit(doc, args)
    if not args.json:
        if not params.hypotheses_met:
            print(
                "warning: guarantee needs m >= 4 and prime k; "
                f"(m={params.m}, k={params.k}) is outside it, results are "
                "enumeration facts only"
            )
        for s in report.stabilizers:
            print(
                f"stabilizer j={s.j}: derived={list(s.derived)} "
                f"{'ok' if s.match else 'MISMATCH'}"
            )
        for c in report.certificates:
            char = (
                "char=" + ",".join(str(x) for x in c.separating_character)
                if c.separating_character is not None
                else "char=none"
            )
            print(
                f"{c.case_id:28s} j={c.j!s:4s} enumerated={c.enumerated:5d} "
                f"empty={'yes' if c.empty else 'NO':3s} {char}"
            )
        if args.cross_validate:
            print(f"cross-validation agreement={doc['cross_validation']['agreement']}")
        print(f"all_empty={ok}")
    return EXIT_CLEAN if ok else EXIT_FINDINGS


def _read_matrix(path: str) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        rows = [
            [int(tok) for tok in line.split()]
            for line in text.splitlines()
            if line.strip()
        ]
        if not rows:
            raise ValueError(f"{path}: empty matrix")
        return IntMatrix.from_rows(rows)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError(f"{path}: expected a JSON 2-D integer array")
    return IntMatrix.from_rows(data)


def cmd_snf(args) -> int:
    result = smith_normal_form(_read_matrix(args.matrix))
    _emit(result.to_json(), args)
    if not args.json:
        print("invariant_factors=" + ",".join(str(d) for d in result.invariant_factors))
    return EXIT_CLEAN


def cmd_abelianize(args) -> int:
    params = _params(args)
    torsion, rank = abelianization_invariants(params)
    desc = " x ".join([f"C{d}" for d in torsion] + [f"Z^{rank}"])
    _emit({"torsion": torsion, "free_rank": rank, "description": desc}, args)
    if not args.json:
        print(desc)
    return EXIT_CLEAN


def cmd_growth(args) -> int:
    params = _params(args)
    count = crossing_orbit_growth(params, args.radius)
    _emit(
        {
            "radius": args.radius,
            "count": count,
            "interpretation": "lower bound on orbit count, computed in the abelianisation",
        },
        args,
    )
    if not args.json:
        print(count)
    return EXIT_CLEAN


def cmd_torsion_probe(args) -> int:
    params = _params(args)
    window = args.window if args.window is not None else 4 * params.k
    seq = canonical_order_sequence(params, range(0, window))
    period = is_periodic(seq, params.k)
    ones_ok = all(
        (seq.value_at(i) == 1) == (i % params.k == 0) for i in range(window)
    )
    doc = seq.to_json()
    doc["period"] = period
    doc["ones_exactly_at_multiples_of_k"] = ones_ok
    _emit(doc, args)
    if not args.json:
        print("values=" + ",".join(str(v) for v in seq.values))
        print(f"period={period}")
    return EXIT_CLEAN if period == params.k and ones_ok else EXIT_FINDINGS


def _add_output(sub) -> None:
    sub.add_argument("-o", "--output", help="write the JSON document to this path")
    sub.add_argument(
        "--stamp", action="store_true", help="include tool/timestamp metadata"
    )


def _add_common_output(sub) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable stdout")
    _add_output(sub)


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return parse


def _add_params(sub) -> None:
    sub.add_argument("--m", type=int, required=True, help="number of generators")
    sub.add_argument("--k", type=int, required=True, help="cyclic order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubespec",
        description="build and verify branched-quotient square complexes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="build a height-truncated quotient complex")
    _add_params(b)
    b.add_argument("--hmin", type=int, required=True)
    b.add_argument("--hmax", type=int, required=True)
    b.add_argument("--cap", type=_at_least(1), help=f"size cap override (or ${SIZE_CAP_ENV})")
    _add_output(b)
    b.set_defaults(fn=cmd_build)

    c = subs.add_parser("check", help="hyperplane and curvature report for a complex")
    c.add_argument("input", help="complex JSON file")
    c.add_argument(
        "--margin",
        type=_at_least(0),
        help="restrict witnesses to heights this far from the truncation boundary "
        f"(default {BUILT_MARGIN} for a built document, with params and a height "
        "on every vertex; 0 otherwise)",
    )
    c.add_argument("--dot", help="also write the interaction graph in DOT format")
    _add_common_output(c)
    c.set_defaults(fn=cmd_check)

    v = subs.add_parser("verify", help="run the symbolic case certificates")
    _add_params(v)
    v.add_argument(
        "--cross-validate",
        action="store_true",
        help="also build a truncation and compare the geometric route",
    )
    v.add_argument("--hmin", type=int, help="lowest height of the cross-validation build")
    v.add_argument("--hmax", type=int, help="highest height of the cross-validation build")
    v.add_argument(
        "--margin",
        type=_at_least(0),
        help=f"core margin of the cross-validation (default {BUILT_MARGIN})",
    )
    v.add_argument(
        "--cap",
        type=_at_least(1),
        help=f"size cap (or ${SIZE_CAP_ENV}); unbounded by default, "
        f"{DEFAULT_SIZE_CAP} for the fallback character search and the "
        "cross-validation build",
    )
    _add_common_output(v)
    v.set_defaults(fn=cmd_verify)

    s = subs.add_parser("snf", help="Smith Normal Form of an integer matrix")
    s.add_argument(
        "--matrix", required=True, help="JSON 2-D array or whitespace grid file"
    )
    _add_common_output(s)
    s.set_defaults(fn=cmd_snf)

    a = subs.add_parser("abelianize", help="abelianisation invariants for (m, k)")
    _add_params(a)
    _add_common_output(a)
    a.set_defaults(fn=cmd_abelianize)

    g = subs.add_parser("growth", help="crossing orbit count within a radius")
    _add_params(g)
    g.add_argument("--radius", type=int, required=True)
    _add_common_output(g)
    g.set_defaults(fn=cmd_growth)

    t = subs.add_parser(
        "torsion-probe", help="order sequence of the canonical images and its period"
    )
    _add_params(t)
    t.add_argument("--window", type=int, help="sample width (default 4k)")
    _add_common_output(t)
    t.set_defaults(fn=cmd_torsion_probe)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (
        SpanError,
        ComplexFormatError,
        ParameterMismatchError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())
