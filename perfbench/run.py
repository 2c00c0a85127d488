"""corrdyn benchmark: closed-loop `corrdyn.cli.run` workloads, timed end to end.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0

Run from the root of a corrdyn checkout; the package is imported from its
`src/`.  One client issues one in-process `corrdyn.cli.run(config, out_dir)`
at a time, each after the previous one returned, and `batch` consecutive runs
make one timed batch.  Every output is checked against the dense oracle after
its batch, outside the timed interval.  The run pins itself to one vCPU,
subtracts that vCPU's steal from wall times, and scales end-to-end times to
the reference speed of a probe kernel timed after every run (speed.py).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 untraced and traced batches alternate and it carries
the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
SETUP_PROBES = 5
WORKLOADS = ("trajectory", "sweep", "spectral", "decompose")


def pin_threads() -> None:
    """Fix BLAS threads; must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "CORRDYN_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_corrdyn():
    """Import corrdyn from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "corrdyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no corrdyn sources under {src}")
    sys.path.insert(0, str(src))
    import corrdyn

    if Path(corrdyn.__file__).resolve().parent != src / "corrdyn":
        raise SystemExit(f"error: corrdyn imported from {corrdyn.__file__}, not {src}")
    return corrdyn


def prepare(args):
    """Everything before the first job: imports and the seeded config files."""
    pin_threads()
    import_corrdyn()
    import workloads

    wl = workloads.build(args.workload, args.seed, args.scale)
    paths, digest = workloads.write_configs(wl, Path(args.work_dir) / "configs")
    return wl, paths, digest


class Clock:
    """Pins the run to one vCPU; gives its steal and a probe time per interval."""

    def __init__(self):
        import speed

        self._speed = speed
        self.cpu = speed.pin_to_one_cpu()
        self._probe = speed.SpeedProbe()
        self._last = self._probe.seconds()

    def stolen(self) -> float:
        return self._speed.stolen_s(self.cpu)

    def around(self) -> float:
        """Mean of the probe times before and after the interval just ended."""
        before, self._last = self._last, self._probe.seconds()
        return (before + self._last) / 2


def setup_probes(args, clock: Clock) -> list[float]:
    """Process start to first job ready, less steal, for SETUP_PROBES fresh
    processes (they inherit the pinned vCPU; this process sleeps meanwhile)."""
    out = []
    for k in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--scale", args.scale,
               "--work-dir", str(Path(args.work_dir) / f"probe{k}")]
        stolen, start = clock.stolen(), time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - (clock.stolen() - stolen)
            proc.stdout.read()
            proc.wait(timeout=60)
        shutil.rmtree(Path(args.work_dir) / f"probe{k}", ignore_errors=True)
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed")
        out.append(ready - start)
    return out


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def measure(wl, paths, seconds: float, trace: bool, work_dir: Path, clock: Clock):
    """Closed-loop batches until `seconds` have passed.

    The first batch is a warm-up: checked and counted, but in no metric.
    With trace, the timed batches alternate untraced, traced, untraced, ...
    Returns the batch records, the attempted and failed run counts, the
    failure notes and the tracer (None without trace).
    """
    from corrdyn import cli

    import gate
    from spans import Tracer
    from speed import REFERENCE_S

    tracer = Tracer() if trace else None
    batches, notes = [], []
    attempted = failed = 0
    next_run = 0
    costs = {False: [], True: []}
    start = time.perf_counter()
    while True:
        warmup = not batches
        traced = trace and len(batches) % 2 == 0 and not warmup
        need = warmup or not costs[False] or (trace and not costs[True])
        est = max(costs[traced]) if costs[traced] else 0.0
        if not need and time.perf_counter() - start + est > seconds:
            break
        began = time.perf_counter()
        picks = [(next_run + j) % len(paths) for j in range(wl.batch)]
        run_ids = [next_run + j for j in range(wl.batch)]
        next_run += wl.batch
        outs = [work_dir / "out" / str(j) for j in range(wl.batch)]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        runs = []
        with tracer.installed() if traced else contextlib.nullcontext():
            for rid, k, out in zip(run_ids, picks, outs):
                if traced:
                    tracer.run_id = rid
                s0, c0, t0 = clock.stolen(), time.process_time(), time.perf_counter()
                try:
                    code = cli.run(paths[k], out)
                except Exception:  # a crash is a failed run, not a dead benchmark
                    code = traceback.format_exc(limit=3)
                finally:
                    t1, c1, s1 = time.perf_counter(), time.process_time(), clock.stolen()
                    if traced:
                        tracer.run_id = None
                runs.append({"code": code, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                             "steal_s": s1 - s0, "speed_s": clock.around()})
        batch = {"warmup": warmup, "traced": traced, "run_ids": run_ids, "runs": runs}
        for key in ("wall_s", "cpu_s", "steal_s"):
            batch[key] = sum(r[key] for r in runs)
        scale = [REFERENCE_S / r["speed_s"] for r in runs]
        batch["norm_wall_s"] = sum((r["wall_s"] - r["steal_s"]) * f for r, f in zip(runs, scale))
        batch["norm_cpu_s"] = sum(r["cpu_s"] * f for r, f in zip(runs, scale))
        batches.append(batch)
        for rid, k, out, run in zip(run_ids, picks, outs, runs):
            attempted += 1
            problems = (gate.check(wl.configs[k], out) if run["code"] == 0
                        else [f"exit {run['code']}"])
            if problems:
                failed += 1
                notes.append({"run": rid, "config": paths[k].name, "problems": problems})
            if traced:
                tracer.counts[(rid, "cli.output_bytes")] += _output_bytes(out)
        if not warmup:
            costs[traced].append(time.perf_counter() - began)
    shutil.rmtree(work_dir / "out", ignore_errors=True)
    return batches, attempted, failed, notes, tracer


def _untraced(batches) -> list[dict]:
    return [b for b in batches if not (b["traced"] or b["warmup"])]


def _median(rows, key) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(batches, setup: list[float]) -> dict:
    plain = _untraced(batches)
    return {
        "wall_s": (_median(plain, "norm_wall_s"), "s"),
        "cpu_s": (_median(plain, "norm_cpu_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def per_layer(batches, tracer) -> dict:
    from spans import unit

    traced = [b for b in batches if b["traced"]]
    rows = [tracer.layer_metrics(b["run_ids"]) for b in traced]
    out = {name: (statistics.median(r[name] for r in rows), unit(name))
           for name in rows[0]}
    wall = _median(traced, "wall_s")
    out["trace.wall_s"] = (wall, "s")
    untraced = _median(_untraced(batches), "wall_s")
    out["trace.overhead_s"] = (wall - untraced, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: N <= 3 inputs, for the benchmark's own tests")
    parser.add_argument("--work-dir", default=None,
                        help="scratch directory (default .bench_work/<workload>)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.work_dir = Path(args.work_dir or ROOT / ".bench_work" / args.workload)

    if args.probe_setup:
        prepare(args)
        print("ready", flush=True)
        return 0

    wl, paths, digest = prepare(args)
    env = environment()  # before pinning, so nproc is what the process may use
    clock = Clock()
    env["pinned_vcpu"] = clock.cpu
    setup = setup_probes(args, clock)
    batches, attempted, failed, notes, tracer = measure(
        wl, paths, args.seconds, bool(args.trace), args.work_dir, clock)
    metrics = per_layer(batches, tracer) if args.trace else end_to_end(batches, setup)
    plain = _untraced(batches)
    raw = {"wall_s": _median(plain, "wall_s"), "cpu_s": _median(plain, "cpu_s"),
           "steal_s": _median(plain, "steal_s")}

    record = {
        "workload": wl.name, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "config_sha256": digest,
        "configs": len(paths), "runs_per_batch": wl.batch,
        "batches": batches, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": notes,
        "setup_probes_s": setup, "raw_medians": raw, "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (args.work_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    if tracer is not None:
        (args.work_dir / f"spans-seed{args.seed}.json").write_text(
            json.dumps(tracer.spans))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {wl.name}: seed {args.seed}, {len(paths)} configs "
          f"(sha256 {digest[:16]}); 1 warm-up, {len(plain)} untraced and "
          f"{len(batches) - 1 - len(plain)} traced batches of {wl.batch} runs")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if not args.trace:
        probe = statistics.median(r["speed_s"] for b in plain for r in b["runs"])
        print(f"speed probe: median {probe:.4g} s CPU next to the untraced runs; "
              f"times are scaled to its reference speed; median steal "
              f"{raw['steal_s']:.4g} s per batch")
    for name, (value, unit) in metrics.items():
        note = f"; raw {raw[name]:.6g} {unit}" if name in raw and not args.trace else ""
        print(f"{name} = {value:.6g} {unit} ({better[name]} is better{note})")
    print(f"fail_frac = {failed / attempted:.6g} ({failed} failed of {attempted} runs)")
    for note in notes:
        print(f"FAILED run {note['run']} ({note['config']}): {'; '.join(note['problems'])}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
