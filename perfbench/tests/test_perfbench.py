"""Tests of the benchmark itself, on tiny (N <= 3) inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.5",
           "--trace", str(trace), "--scale", "tiny", "--work-dir", str(tmp_path)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _prepared(tmp_path, name):
    wl = workloads.build(name, seed=7, scale="tiny")
    paths, _ = workloads.write_configs(wl, tmp_path / "configs")
    return wl, paths


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(tmp_path, workload):
    proc = _bench(tmp_path, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
        assert any(ln.startswith(f"{metric['name']} = ") and f" {metric['unit']} " in ln
                   for ln in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert any(ln.startswith("fail_frac = 0 (0 failed of ") for ln in lines)


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    proc = _bench(tmp_path, "spectral", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["dynamics.resolvent.calls"]["value"] == 4


@pytest.mark.parametrize("workload", ["trajectory", "spectral", "decompose"])
def test_spans_nest_and_self_times_sum_to_wall(tmp_path, workload):
    from corrdyn import cli

    wl, paths = _prepared(tmp_path, workload)
    tracer = Tracer()
    walls = {}
    with tracer.installed():
        for rid, path in enumerate(paths):
            tracer.run_id = rid
            t0 = run.time.perf_counter()
            assert cli.run(path, tmp_path / f"out{rid}") == 0
            walls[rid] = run.time.perf_counter() - t0
            tracer.run_id = None
    assert cli.run.__module__ == "corrdyn.cli" and not hasattr(cli.run, "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    assert len(by_id) == len(tracer.spans)
    for sid, name, start, end, parent, rid, own, raised in tracer.spans:
        assert start <= end and not raised and own >= 0
        if parent is None:
            assert name == "cli.run"
            continue
        p = by_id[parent]
        assert p[2] <= start and end <= p[3] and p[5] == rid
    for rid, wall in walls.items():
        own = sum(s[6] for s in tracer.spans if s[5] == rid)
        assert own <= wall and wall - own < 1e-3 + 0.01 * wall
    metrics = tracer.layer_metrics(walls)
    if workload == "decompose":
        assert metrics["hierarchy.build_generator.calls"] == 0
        assert metrics["combinatorics.partitions"] > 0 and metrics["combinatorics.subsets"] > 0
    else:
        assert metrics["hierarchy.build_generator.calls"] == len(paths)


def test_untraced_runs_record_nothing(tmp_path):
    from corrdyn import cli

    _, paths = _prepared(tmp_path, "decompose")
    tracer = Tracer()
    with tracer.installed():
        assert cli.run(paths[0], tmp_path / "out") == 0
    assert tracer.spans == [] and not tracer.counts


def _corrupt_first_value(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,filename", [
    ("trajectory", "trajectory.csv"),
    ("spectral", "spectrum.csv"),
    ("spectral", "resolvent.csv"),
])
def test_gate_catches_corrupted_csv(tmp_path, workload, filename):
    from corrdyn import cli

    wl, paths = _prepared(tmp_path, workload)
    out = tmp_path / "out"
    assert cli.run(paths[0], out) == 0
    assert gate.check(wl.configs[0], out) == []
    _corrupt_first_value(out / filename)
    assert gate.check(wl.configs[0], out)


@pytest.mark.parametrize("filename,old,new", [
    ("decomposition.txt", "reconstruction_error=", "reconstruction_error=1e-3 "),
    ("validate.txt", "status=ok", "status=fail"),
])
def test_gate_catches_corrupted_report(tmp_path, filename, old, new):
    from corrdyn import cli

    wl, paths = _prepared(tmp_path, "decompose" if filename == "decomposition.txt"
                          else "spectral")
    out = tmp_path / "out"
    assert cli.run(paths[0], out) == 0
    assert gate.check(wl.configs[0], out) == []
    path = out / filename
    text = path.read_text()
    if old.endswith("="):
        text = "\n".join(new.strip() if ln.startswith(old) else ln
                         for ln in text.splitlines())
    else:
        text = text.replace(old, new)
    path.write_text(text)
    assert gate.check(wl.configs[0], out)


def test_corrupted_outputs_count_as_failures(tmp_path, monkeypatch):
    from corrdyn import cli

    wl, paths = _prepared(tmp_path, "trajectory")
    real = cli.run

    def corrupting(config, out_dir):
        code = real(config, out_dir)
        _corrupt_first_value(Path(out_dir) / "trajectory.csv")
        return code

    monkeypatch.setattr(cli, "run", corrupting)
    batches, attempted, failed, notes, _ = run.measure(
        wl, paths, 0.0, False, tmp_path / "work", run.Clock())
    assert attempted == failed == 2 * len(batches) and len(notes) == failed


def test_seed_changes_inputs_but_not_sizes():
    assert run.WORKLOADS == workloads.NAMES
    for name in workloads.NAMES:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert a.configs != b.configs and a.configs == workloads.build(name, 1).configs
        assert [c["sites"] for c in a.configs] == [c["sites"] for c in b.configs]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path / "work", "decompose", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
