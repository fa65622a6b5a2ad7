"""cubespec benchmark: whole CLI commands, and the layers under them.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload doc-pipeline --seed 1 --seconds 40 --trace 0

``--trace 0`` drives the CLI as fresh subprocesses, one command at a
time, for one whole workload pass and then as many further commands as
fit in ``--seconds``, and reports the end-to-end metrics.  Each command
and the set-up are bracketed by runs of ``reference.py``, and their times
are scaled by the nearest of those runs (see ``Run.calibrate``).
``--trace 1`` runs one untraced pass, then replays the same commands
in-process through ``cubespec.cli.main`` with the timing shims of
``shims.py`` installed, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
seed, every command with its document sha256, and in traced runs the
spans) is written under ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import shims
from workloads import (
    REFERENCE_NOMINAL_S, WORKLOADS, Command, Outcome, check_outcome, check_repeatable,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
CLI = (sys.executable, "-c", "from cubespec.cli import console_main; console_main()")
REFERENCE = (sys.executable, "-I", str(Path(reference.__file__).resolve()))
SETUP_REPS = 11
# a run stops starting commands after PASS_BUDGET_S and kills a command
# still running at HARD_LIMIT_S, so it ends within 180 seconds
PASS_BUDGET_S = 150.0
HARD_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# traced metrics that must be non-zero on a workload, so that a shim that
# matched nothing or a vacuous run cannot pass unnoticed
REQUIRED_NONZERO = {
    "doc-pipeline": (
        "complex_model.build_calls", "complex_model.cells", "complex_model.doc_bytes",
        "complex_model.to_json_s", "complex_model.from_json_s", "complex_model.check_npc_s",
        "hyperplane_engine.classes", "hyperplane_engine.osc_pairs",
        "hyperplane_engine.core_edge_count",
    ),
    "cross-validate": (
        "complex_model.build_calls", "hyperplane_engine.osc_pairs",
        "hyperplane_engine.core_edge_count", "verifier.classify_s",
        "verifier.witnesses_classified", "verifier.cross_validate_s",
    ),
    "verify-sweep": ("verifier.certificates_s", "verifier.configs_enumerated"),
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("CUBESPEC_SIZE_CAP", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def environment(root: Path) -> dict:
    rec = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_sha": None,
        "git_dirty": None,
    }
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True, check=False
            ).stdout.strip()

        rec["git_sha"] = git("rev-parse", "HEAD") or None
        rec["git_dirty"] = bool(git("status", "--porcelain"))
    return rec


# ---------------------------------------------------------------------------
# running commands


def run_subprocess(cmd: Command, env: dict, cpu_limit: int, prefix=CLI) -> Outcome:
    """Run one CLI command as a fresh process and check its outputs.

    The child's peak RSS comes from its own rusage; a CPU-time limit
    stops a command that would overrun the run's time budget.
    """
    if cmd.doc_path is not None and cmd.doc_path.exists():
        cmd.doc_path.unlink()  # a command that writes nothing must not pass on a stale file

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_limit, cpu_limit + 1))

    out_path = WORK / "stdout"
    with open(out_path, "wb") as out, open(WORK / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [*prefix, *cmd.argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, preexec_fn=limit_cpu,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return check_outcome(
        cmd, proc.returncode, seconds, usage.ru_maxrss / 1024, cpu, out_path.read_bytes()
    )


def run_in_process(cmd: Command, tracer: shims.Tracer, cli_main) -> Outcome:
    if cmd.doc_path is not None and cmd.doc_path.exists():
        cmd.doc_path.unlink()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        with tracer.span("cli.main"):
            rc = cli_main(list(cmd.argv))
        seconds = time.perf_counter() - t0
    return check_outcome(cmd, rc, seconds, None, None, out.getvalue().encode())


def run_reference(env: dict) -> float:
    """Wall seconds of one fresh reference process; it must print its checksum."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        REFERENCE, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        timeout=60,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout.decode().strip() != reference.CHECKSUM:
        raise RuntimeError(f"reference task failed: {proc.returncode} {proc.stdout[:80]!r}")
    return seconds


def time_setup(env: dict) -> list[float]:
    """Fresh interpreter start plus `import cubespec.cli`, after one warm-up."""
    times = []
    for _ in range(SETUP_REPS + 1):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import cubespec.cli"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, check=True,
        )
        times.append(time.perf_counter() - t0)
    return times[1:]


class Run:
    def __init__(self, commands: list[Command], env: dict) -> None:
        self.commands = commands
        self.env = env
        self.started = time.monotonic()
        self.seen: dict[str, str] = {}  # command label -> first document sha256
        self.outcomes: list[Outcome] = []
        self.references: list[float] = []  # every reference time, in order
        # calibrated commands not yet given their reference time, each with
        # the index of the reference run right after it
        self.uncalibrated: list[tuple[Outcome, int]] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def reference(self) -> float:
        self.references.append(run_reference(self.env))
        return self.references[-1]

    def run_one(self, cmd: Command, calibrate: bool = False) -> Outcome:
        """Run one command as a subprocess; with ``calibrate``, follow it by a
        reference run (the one after a command is the one before the next)."""
        if calibrate and not self.references:
            self.reference()
        cpu_limit = max(1, int(HARD_LIMIT_S - self.elapsed()))
        outcome = run_subprocess(cmd, self.env, cpu_limit)
        if calibrate:
            self.reference()
            self.uncalibrated.append((outcome, len(self.references) - 1))
        check_repeatable(outcome, self.seen)
        self.outcomes.append(outcome)
        print(_line(outcome), flush=True)
        return outcome

    def calibrate(self) -> None:
        """Give each calibrated command the mean of the four reference runs
        nearest it, two before and two after.  Four runs rather than two damp
        an outlier among them; one more run gives the last command its second."""
        self.reference()
        for outcome, after in self.uncalibrated:
            outcome.reference_s = statistics.mean(self.references[max(0, after - 2):after + 2])
        self.uncalibrated = []

    def subprocess_pass(self, calibrate: bool = False) -> list[Outcome]:
        return [self.run_one(cmd, calibrate) for cmd in self.commands]

    def traced_pass(self, tracer: shims.Tracer, cli_main) -> list[Outcome]:
        done = []
        for n, cmd in enumerate(self.commands):
            tracer.command = n
            outcome = run_in_process(cmd, tracer, cli_main)
            check_repeatable(outcome, self.seen)  # traced documents == untraced ones
            done.append(outcome)
            print("traced " + _line(outcome), flush=True)
        self.outcomes += done
        return done


def _line(o: Outcome) -> str:
    verdict = "ok" if not o.problems else "FAILED: " + "; ".join(o.problems)
    rss = f"{o.peak_rss_mb:7.1f}MB" if o.peak_rss_mb is not None else "  in-proc"
    sha = (o.sha256 or "-")[:16]
    return f"{o.seconds:8.3f}s {rss} exit={o.exit_code} sha={sha} {o.command.label} :: {verdict}"


def _kind_seconds(outcomes: list[Outcome], kind: str) -> float:
    return sum(o.seconds for o in outcomes if o.command.kind == kind)


# ---------------------------------------------------------------------------
# the two kinds of run


def _median_by_command(outcomes: list[Outcome], key) -> dict[str, float]:
    by_label: dict[str, list[float]] = {}
    for o in outcomes:
        by_label.setdefault(o.command.label, []).append(key(o))
    return {label: statistics.median(values) for label, values in by_label.items()}


def untraced(run: Run, seconds: float, record: dict) -> dict:
    """One whole calibrated pass, then further commands in workload order
    while the next one should end within ``seconds``."""
    # set-up is calibrated by the reference runs right before and after it
    before = run.reference()
    setup = time_setup(run.env)
    setup_reference = (before + run.reference()) / 2
    t0 = time.monotonic()
    run.subprocess_pass(calibrate=True)
    for n in itertools.count():
        cmd = run.commands[n % len(run.commands)]
        # a command's turn lasts its own run plus the reference run after it
        ref = statistics.median(run.references)
        expected = _median_by_command(run.outcomes, lambda o: o.seconds + ref)
        next_end = time.monotonic() - t0 + expected[cmd.label] + ref  # + the last reference
        if next_end > seconds or run.elapsed() + expected[cmd.label] > PASS_BUDGET_S:
            break
        run.run_one(cmd, calibrate=True)
    run.calibrate()
    calibrated = _median_by_command(run.outcomes, lambda o: o.calibrated_seconds)
    raw = _median_by_command(run.outcomes, lambda o: o.seconds)
    record.update(
        setup_samples=setup, setup_reference_s=setup_reference, references=run.references,
        calibrated_medians=calibrated, raw_medians=raw,
    )
    record["raw_wall_s"] = sum(raw.values())
    record["command_seconds"] = {
        kind: sum(raw[c.label] for c in run.commands if c.kind == kind)
        for kind in ("build", "check", "cross_validate", "verify")
    }
    return {
        "setup_s": statistics.median(setup) * REFERENCE_NOMINAL_S / setup_reference,
        "wall_s": sum(calibrated.values()),
        "peak_rss_mb": max(o.peak_rss_mb for o in run.outcomes),
    }


def traced(run: Run, workload: str, record: dict) -> dict:
    plain = run.subprocess_pass()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = shims.Tracer()
    with shims.installed(tracer) as cli_main:
        module_file = Path(sys.modules["cubespec"].__file__).resolve()
        if ROOT / "src" not in module_file.parents:
            raise RuntimeError(f"imported cubespec from {module_file}, not from {ROOT}/src")
        traced_outcomes = run.traced_pass(tracer, cli_main)
    metrics = shims.layer_metrics(tracer, traced_outcomes)
    metrics["trace.overhead_s"] = sum(o.seconds for o in traced_outcomes) - sum(
        o.seconds for o in plain
    )
    metrics["e2e.build_s"] = _kind_seconds(plain, "build")
    metrics["e2e.check_s"] = _kind_seconds(plain, "check")
    metrics["e2e.cross_validate_s"] = _kind_seconds(plain, "cross_validate")
    record["shim_problems"] = [
        f"{name} is {metrics.get(name)!r} on {workload}"
        for name in REQUIRED_NONZERO[workload]
        if not metrics.get(name)
    ] + [f"{name} missing" for name in shims.LAYER_METRICS if metrics.get(name) is None]
    spans_path = WORK / f"spans-{workload}-seed{record['seed']}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for rec in tracer.dump():
            fh.write(json.dumps(rec) + "\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubespec" / "cli.py").is_file():
        print(f"error: no cubespec sources at {ROOT / 'src' / 'cubespec'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env(ROOT)
    os.environ.pop("CUBESPEC_SIZE_CAP", None)  # the traced, in-process run too
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ROOT),
    }
    commands = WORKLOADS[args.workload](WORK, args.seed)
    record["order"] = [c.label for c in commands]
    run = Run(commands, env)
    try:
        if args.trace:
            values = traced(run, args.workload, record)
            units = shims.LAYER_METRICS
        else:
            values = untraced(run, args.seconds, record)
            units = E2E_UNITS
    finally:
        for name in ("doc.json", "stdout", "stderr"):
            (WORK / name).unlink(missing_ok=True)
    failed = sum(1 for o in run.outcomes if o.problems)
    correct = failed == 0 and not record.get("shim_problems")
    record["commands"] = [o.record() for o in run.outcomes]
    record["metrics"] = values
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in record.get("shim_problems", []):
        print(f"shim check: {problem}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
