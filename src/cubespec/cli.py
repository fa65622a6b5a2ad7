"""Command-line front end with stable exit codes for CI use.

Exit codes: 0 clean, 1 findings (violations, non-empty certificates, or
curvature failures), 2 usage or input error, 3 resource cap exceeded.
Outputs are deterministic: fixed iteration orders and no timestamps
unless ``--stamp`` opts in.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _enc
from typing import Optional

from cubespec import __version__
from cubespec.coeff_group import GroupParams
from cubespec.incidence import DEFAULT_SIZE_CAP, SizeCapError, check_size_cap
from cubespec.layout import Rows, pieces

# complex_model, hyperplane_engine, verifier, algebra_tools and datetime
# are imported inside the commands that use them: each command is its
# own process, and a plain verify needs no complex.

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

# a build lacks the squares past its two end layers, and the osculations
# that this leaves unexempted touch only edges within 1 height of an end
BUILT_MARGIN = 2


# one row of the bigon pairs of ``check``: four ids, laid out as a list item
_BIGON_ROW = "    [\n" + ",\n".join(["      %s"] * 4) + "\n    ]"


def _bigon_rows(pairs: list[list[str]]) -> Rows:
    """The bigon pairs of ``check`` declared to the writer: rows of four quoted ids."""

    def fields(lo: int, hi: int) -> tuple:
        return tuple(map(_enc, itertools.chain.from_iterable(pairs[lo:hi])))

    return Rows(_BIGON_ROW, len(pairs), fields)


def _stamp() -> dict:
    import datetime

    return {
        "tool": f"cubespec {__version__}",
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _emit(doc: dict, args) -> None:
    if args.stamp:
        doc = {**doc, "stamp": _stamp()}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces(doc))
    elif args.json:
        sys.stdout.writelines(pieces(doc))


def _params(args) -> GroupParams:
    return GroupParams(args.m, args.k)


def _read_file(path: str, read):
    """``read`` of a UTF-8 file open as text; a decode error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def cmd_build(args) -> int:
    from cubespec.complex_model import build_quotient_complex, complex_to_json, validate_complex

    params = _params(args)
    size_cap = DEFAULT_SIZE_CAP if args.cap is None else args.cap
    cells = build_quotient_complex(params, args.hmin, args.hmax, size_cap=size_cap)
    validate_complex(cells)  # the walks are checked before the document is written
    stamp = _stamp() if args.stamp else None
    summary = " ".join(f"{kind}={count}" for kind, count in cells.counts().items())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            complex_to_json(cells, fh, stamp)
        print(summary)
    else:
        complex_to_json(cells, sys.stdout, stamp)
        print(summary, file=sys.stderr)
    return EXIT_CLEAN


def cmd_check(args) -> int:
    from cubespec.complex_model import check_npc, complex_from_json
    from cubespec.hyperplane_engine import (
        compute_hyperplanes,
        dot_export,
        interaction_report,
        margin_core,
        report_to_json,
    )

    ix = _read_file(args.input, complex_from_json)  # read a block at a time, never whole
    heights = ix.height
    margin = args.margin
    if margin is None:
        margin = BUILT_MARGIN if ix.params is not None and heights and None not in heights else 0
    core = margin_core(ix, margin) if margin else None
    npc = check_npc(ix)
    H = compute_hyperplanes(ix)
    report = interaction_report(ix, H, core)
    out = {"npc": npc.to_json()}
    out.update(report_to_json(ix, H, report))
    out["bigon_pairs"] = _bigon_rows(report.bigon_pairs)
    out["clean"] = npc.passed and report.violation_count() == 0
    _emit(out, args)
    if not args.json:
        print(f"classes={H.n_classes} one_sided={len(H.one_sided)}")
        counts = " ".join(f"{key}={len(found)}" for key, found in report.violations.items())
        print(f"violations: {counts}")
        print(f"npc={'pass' if npc.passed else 'fail'}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot_export(ix, report))
    return EXIT_CLEAN if out["clean"] else EXIT_FINDINGS


def cmd_verify(args) -> int:
    from cubespec.verifier import cross_validate, verify_all

    params = _params(args)
    # only the cross-validation build walks the k^m coefficients
    size_cap = DEFAULT_SIZE_CAP if args.cap is None and args.cross_validate else args.cap
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
    if size_cap is not None:
        check_size_cap(params, size_cap)
    report = verify_all(params)
    doc = report.to_json()
    ok = report.all_empty
    if args.cross_validate:
        from cubespec.complex_model import build_quotient_complex, validate_complex

        ix = validate_complex(
            build_quotient_complex(params, args.hmin, args.hmax, size_cap=size_cap)
        )
        cv = cross_validate(ix, margin, report.certificates)
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


def _read_matrix(path: str):
    from cubespec.algebra_tools import IntMatrix

    text = _read_file(path, lambda fh: fh.read())
    if text.lstrip()[:1] != "[":  # a whitespace grid, even of one entry
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError(f"{path}: empty matrix")
        for i, row in enumerate(rows):
            for j, tok in enumerate(row):
                try:
                    row[j] = int(tok)
                except ValueError:
                    raise ValueError(
                        f"{path}: entry [{i}][{j}] is {tok!r}, expected an integer"
                    ) from None
    else:
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON array: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: nesting too deep for the JSON decoder") from None
        if not all(isinstance(r, list) for r in rows):
            raise ValueError(f"{path}: expected a JSON 2-D integer array")
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if type(x) is not int:  # int() would truncate a float and take a bool
                    raise ValueError(
                        f"{path}: entry [{i}][{j}] is {json.dumps(x)}, expected an integer"
                    )
    try:
        return IntMatrix.from_rows(rows)
    except ValueError as exc:  # ragged rows or an empty row
        raise ValueError(f"{path}: {exc}") from None


def cmd_snf(args) -> int:
    from cubespec.algebra_tools import smith_normal_form

    result = smith_normal_form(_read_matrix(args.matrix))
    _emit(result.to_json(), args)
    if not args.json:
        print("invariant_factors=" + ",".join(str(d) for d in result.invariant_factors))
    return EXIT_CLEAN


def cmd_abelianize(args) -> int:
    from cubespec.algebra_tools import abelianization_invariants

    params = _params(args)
    torsion, rank = abelianization_invariants(params)
    desc = " x ".join([f"C{d}" for d in torsion] + [f"Z^{rank}"])
    _emit({"torsion": torsion, "free_rank": rank, "description": desc}, args)
    if not args.json:
        print(desc)
    return EXIT_CLEAN


def cmd_growth(args) -> int:
    from cubespec.algebra_tools import crossing_orbit_growth

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
    from cubespec.algebra_tools import canonical_order_sequence, is_periodic

    params = _params(args)
    window = args.window if args.window is not None else 4 * params.k
    if window < 3 * params.k:
        # three periods of the longest candidate, k, must fit in the sample
        raise ValueError(f"--window {window} is too short: need at least 3k = {3 * params.k}")
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
    b.add_argument("--cap", type=_at_least(1), help="size cap override")
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
        help=f"size cap on the group order k^m; unbounded by default, "
        f"{DEFAULT_SIZE_CAP} with --cross-validate",
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
    g.add_argument("--radius", type=_at_least(0), required=True)
    _add_common_output(g)
    g.set_defaults(fn=cmd_growth)

    t = subs.add_parser(
        "torsion-probe", help="order sequence of the canonical images and its period"
    )
    _add_params(t)
    t.add_argument("--window", type=_at_least(0), help="sample width, at least 3k (default 4k)")
    _add_common_output(t)
    t.set_defaults(fn=cmd_torsion_probe)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # No command makes reference cycles in proportion to its input, so
    # the cyclic collector would only rescan the live columns and views.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


def console_main() -> None:
    raise SystemExit(main())
