"""The example scripts run against the current API and report no disagreement."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from corrdyn import cli

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    # the child imports the same corrdyn as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
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


def test_output_digests_lists_every_output_file_once():
    lines = _run("output_digests.py", "--seeds", "1", "2", "--scale", "tiny").stdout.splitlines()
    rows = [line.split() for line in lines]
    assert all(len(row) == 5 and len(row[4]) == 64 for row in rows), lines
    # per seed: 2 trajectory, 8 sweep, 2 x 3 spectral and 4 decompose files
    assert len(rows) == len({tuple(row[:4]) for row in rows}) == 40
    for seed in ("1", "2"):
        names = {(row[0], row[3]) for row in rows if row[1] == seed}
        assert names == {
            ("trajectory", "trajectory.csv"),
            ("sweep", "trajectory.csv"),
            ("spectral", "spectrum.csv"),
            ("spectral", "resolvent.csv"),
            ("spectral", "validate.txt"),
            ("decompose", "decomposition.txt"),
        }


def _digests(script: Path, pythonpath: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--seeds", "1", "--scale", "tiny"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_output_digests_runs_its_own_checkout(tmp_path):
    decoy = tmp_path / "decoy"
    (decoy / "corrdyn").mkdir(parents=True)
    (decoy / "corrdyn" / "__init__.py").write_text("DECOY = True\n")
    script = ROOT / "scripts" / "output_digests.py"
    proc = _digests(script, str(decoy))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _digests(script, "").stdout
    assert len(proc.stdout.splitlines()) == 20
    # a copy of the script with no src/ beside it refuses the decoy
    lone = tmp_path / "lone" / "scripts" / "output_digests.py"
    lone.parent.mkdir(parents=True)
    lone.write_text(script.read_text())
    proc = _digests(lone, str(decoy))
    assert proc.returncode != 0 and not proc.stdout
    assert proc.stderr.startswith(f"error: corrdyn imported from {decoy / 'corrdyn'}")


def test_output_digests_prints_the_same_lines_on_one_and_two_threads():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # refused before numpy is imported, so no thread is started
    for bad in (0, cpus + 1):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digests.py"), "--seeds", "1",
             "--threads", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and not proc.stdout
        assert f"--threads must be from 1 to {cpus}" in proc.stderr
    tiny = ("--seeds", "1", "--scale", "tiny", "--threads")
    one = _run("output_digests.py", *tiny, "1").stdout
    assert len(one.splitlines()) == 20
    assert _run("output_digests.py", *tiny, str(min(cpus, 2))).stdout == one


def test_each_mutant_applies_to_this_checkout():
    # the mutants themselves run only in scripts/mutants.py, on copies
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    # the name the mutant runs deselect, so a rename here must follow there
    assert mutants.SELF_TEST == f"tests/test_scripts.py::{test_each_mutant_applies_to_this_checkout.__name__}"
    for file, old, new, tests in mutants.MUTANTS:
        assert (ROOT / file).read_text().count(old) == 1, (file, old)
        assert new != old
        assert (ROOT / tests).is_file(), tests
