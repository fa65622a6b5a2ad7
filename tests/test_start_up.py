"""Guard: what a command loads before it starts its work.

Every command is its own process, so the modules that ``cubespec.cli``
imports are paid by each run, and a sweep of ``verify`` runs pays them
once per pair.  The interpreter runs with ``-S``, so no site hooks of
the installation add modules of their own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = {
    "dataclasses",
    "inspect",
    "cubespec.complex_model",
    "cubespec.hyperplane_engine",
    "cubespec.verifier",
}

PROBE = """
import json, sys
import cubespec.cli
after_cli = sorted(sys.modules)
import cubespec.verifier
print(json.dumps([after_cli, sorted(sys.modules)]))
"""


def test_cli_and_verifier_load_no_complex():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    after_cli, after_verifier = map(set, json.loads(proc.stdout))
    assert "cubespec.incidence" in after_cli  # the probe imported the package
    assert sorted(HEAVY & after_cli) == []
    assert "cubespec.verifier" in after_verifier
    assert "cubespec.complex_model" not in after_verifier
