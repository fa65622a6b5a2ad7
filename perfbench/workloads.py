"""Workloads of the cubespec benchmark and the checks on their outputs.

A workload is a fixed list of CLI commands run in a closed loop: one
client, each command starting after the previous one has exited.  The
seed only permutes the order of the verify-sweep pairs; every other input
is fixed, so the documents of a workload are the same for every seed.

Every command is checked for its exit code, its verdict fields, a
non-vacuous result and, by the caller, byte-identical documents across
repetitions.  A command that fails any check is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# verify-sweep pairs: inside the guarantee regime every certificate is
# empty (exit 0); m = 3 or composite k yields findings (exit 1)
SWEEP_CLEAN = ((4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (7, 2), (8, 2), (4, 5))
SWEEP_FINDINGS = ((3, 3), (3, 5), (4, 4), (3, 7))

OSC_CASE_PREFIXES = ("selfosc_", "interosc_")

# wall seconds of perfbench/reference.py on the machine where the benchmark
# was defined; calibrated times are in seconds of that machine
REFERENCE_NOMINAL_S = 0.45


@dataclass(frozen=True)
class Command:
    kind: str  # "build", "check", "cross_validate" or "verify"
    argv: tuple[str, ...]
    expect_exit: int
    doc_path: Optional[Path] = None  # document written with -o; else stdout

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass
class Outcome:
    command: Command
    exit_code: int
    seconds: float
    peak_rss_mb: Optional[float]  # None for commands run in-process
    cpu_seconds: Optional[float]  # user + system time of the child
    sha256: Optional[str]
    doc_bytes: int
    problems: list[str] = field(default_factory=list)
    document: Optional[dict] = None  # parsed verify document
    reference_s: Optional[float] = None  # mean reference time around the command

    @property
    def calibrated_seconds(self) -> float:
        """Wall seconds scaled to a host that runs the reference task in
        ``REFERENCE_NOMINAL_S``; plain wall seconds when uncalibrated."""
        if self.reference_s is None:
            return self.seconds
        return self.seconds * REFERENCE_NOMINAL_S / self.reference_s

    def record(self) -> dict:
        return {
            "kind": self.command.kind,
            "command": self.command.label,
            "exit": self.exit_code,
            "expected_exit": self.command.expect_exit,
            "seconds": self.seconds,
            "peak_rss_mb": self.peak_rss_mb,
            "cpu_seconds": self.cpu_seconds,
            "reference_s": self.reference_s,
            "calibrated_seconds": self.calibrated_seconds,
            "sha256": self.sha256,
            "doc_bytes": self.doc_bytes,
            "problems": self.problems,
        }


# ---------------------------------------------------------------------------
# workloads


def doc_pipeline(doc: Path, m: int = 4, k: int = 5, span: int = 12, margin: int = 5):
    """Build a truncation into a document, then check the document."""
    build = (
        "build", "--m", str(m), "--k", str(k),
        "--hmin", str(-span), "--hmax", str(span), "-o", str(doc),
    )
    check = ("check", str(doc), "--margin", str(margin), "--json")
    return [Command("build", build, 0, doc), Command("check", check, 0)]


def cross_validate(m: int = 4, k: int = 3, span: int = 8, margin: int = 3):
    """Both routes in one process, compared on the core."""
    argv = (
        "verify", "--m", str(m), "--k", str(k), "--cross-validate",
        "--hmin", str(-span), "--hmax", str(span), "--margin", str(margin), "--json",
    )
    return [Command("cross_validate", argv, 0)]


def verify_sweep(seed: int, clean=SWEEP_CLEAN, findings=SWEEP_FINDINGS):
    """One `verify` process per pair, in an order drawn from the seed."""
    pairs = [(mk, 0) for mk in clean] + [(mk, 1) for mk in findings]
    random.Random(seed).shuffle(pairs)
    return [
        Command("verify", ("verify", "--m", str(m), "--k", str(k), "--json"), rc)
        for (m, k), rc in pairs
    ]


WORKLOADS = {
    "doc-pipeline": lambda work, seed: doc_pipeline(work / "doc.json"),
    "cross-validate": lambda work, seed: cross_validate(),
    "verify-sweep": lambda work, seed: verify_sweep(seed),
}


# ---------------------------------------------------------------------------
# output checks


def _check_build(stdout: bytes) -> list[str]:
    # the summary line reads "vertices=V edges=E squares=S"
    try:
        counts = dict(tok.split("=") for tok in stdout.decode().split())
        cells = [int(counts[key]) for key in ("vertices", "edges", "squares")]
    except (UnicodeDecodeError, ValueError, KeyError):
        return [f"unreadable build summary {stdout[:80]!r}"]
    if min(cells) <= 0:
        return [f"empty complex: {counts}"]
    return []


def _check_check(doc: dict, clean: bool) -> list[str]:
    problems = []
    if doc.get("clean") is not clean:
        problems.append(f"clean={doc.get('clean')!r}, expected {clean}")
    if doc.get("npc", {}).get("passed") is not True and clean:
        problems.append("npc check did not pass")
    for key in ("classes", "crossing_pairs", "osculating_pairs"):
        if not doc.get(key):
            problems.append(f"vacuous result: {key}={doc.get(key)!r}")
    if "core" not in doc:
        problems.append("no core span in the report")
    return problems


def _check_verify(doc: dict, clean: bool) -> list[str]:
    problems = []
    if doc.get("all_empty") is not clean:
        problems.append(f"all_empty={doc.get('all_empty')!r}, expected {clean}")
    certs = doc.get("certificates") or []
    osc = [c for c in certs if c.get("case_id", "").startswith(OSC_CASE_PREFIXES)]
    if not osc or sum(c.get("enumerated", 0) for c in osc) <= 0:
        problems.append("vacuous result: no osculation configurations enumerated")
    if not doc.get("quotient_order"):
        problems.append("vacuous result: quotient_order is zero")
    if not clean and not any(not c["empty"] and c["witnesses"] for c in certs):
        problems.append("findings expected but no certificate holds a witness")
    return problems


def _check_cross_validation(doc: dict, clean: bool) -> list[str]:
    problems = _check_verify(doc, clean)
    cv = doc.get("cross_validation")
    if not isinstance(cv, dict):
        return problems + ["no cross_validation section"]
    if cv.get("agreement") is not clean:
        problems.append(f"agreement={cv.get('agreement')!r}, expected {clean}")
    if cv.get("violations_zero") != cv.get("certificates_empty"):
        problems.append("violations_zero differs from certificates_empty")
    if not cv.get("core_edge_count"):
        problems.append("vacuous result: empty core")
    matches = cv.get("case_matches") or {}
    if not any(n for case, n in matches.items() if case != "benign_nonadjacent"):
        problems.append("vacuous result: no witness matched a configuration")
    return problems


_DOC_CHECKS = {
    "check": _check_check,
    "verify": _check_verify,
    "cross_validate": _check_cross_validation,
}


def check_outcome(
    cmd: Command, exit_code: int, seconds: float, peak_rss_mb: Optional[float],
    cpu_seconds: Optional[float], stdout: bytes,
) -> Outcome:
    """Check one finished command; the document is -o's file or stdout."""
    problems = []
    if exit_code != cmd.expect_exit:
        problems.append(f"exit {exit_code}, expected {cmd.expect_exit}")
    document = None
    if cmd.kind == "build":
        problems += _check_build(stdout)
        body = cmd.doc_path.read_bytes() if cmd.doc_path.is_file() else b""
        if not body:
            problems.append("no document written")
    else:
        body = stdout
        try:
            parsed = json.loads(stdout)
        except ValueError:
            problems.append("stdout is not a JSON document")
        else:
            problems += _DOC_CHECKS[cmd.kind](parsed, cmd.expect_exit == 0)
            if cmd.kind != "check":
                document = parsed
    sha = hashlib.sha256(body).hexdigest() if body else None
    return Outcome(
        cmd, exit_code, seconds, peak_rss_mb, cpu_seconds, sha, len(body), problems, document
    )


def check_repeatable(outcome: Outcome, seen: dict[str, str]) -> None:
    """Documents must be byte-identical each time a command repeats."""
    label = outcome.command.label
    if outcome.sha256 is None:
        return
    first = seen.setdefault(label, outcome.sha256)
    if first != outcome.sha256:
        outcome.problems.append(
            f"document sha256 {outcome.sha256} differs from an earlier run ({first})"
        )
