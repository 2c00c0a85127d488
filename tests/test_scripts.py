"""The example scripts run against the current API and report no disagreement."""

import os
import subprocess
import sys
from pathlib import Path

from corrdyn import cli

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str) -> subprocess.CompletedProcess:
    # the child imports the same corrdyn as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_two_spin_sweep_routes_agree():
    lines = _run("two_spin_sweep.py").stdout.splitlines()
    header = lines[0].split(",")
    errors = [k for k, name in enumerate(header) if name.endswith("_err")]
    assert [header[k] for k in errors] == ["spectrum_max_err", "oracle_max_err"]
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 21
    for row in rows:
        assert all(float(row[k]) <= 1e-12 for k in errors), row


def test_entanglement_buildup_matches_exact_evolution():
    proc = _run("entanglement_buildup.py")
    assert len(proc.stdout.splitlines()) == 1 + 21  # header + samples 0, 0.4, ..., 8
    prefix = "# max deviation from exact evolution: "
    (line,) = [ln for ln in proc.stderr.splitlines() if ln.startswith(prefix)]
    assert float(line[len(prefix):]) <= 1e-12
