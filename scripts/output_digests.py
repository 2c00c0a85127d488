#!/usr/bin/env python3
"""Print the sha256 of every output file the benchmark workloads' configs write.

For each seed and each workload of perfbench/workloads.py (which is only
read), the seeded configs are written and each runs once through
`corrdyn.cli.run` into its own directory.  One line per output file follows:

    workload seed config file sha256

Two checkouts that print the same lines write the same bytes.  corrdyn is
imported from this checkout's src/, put first on sys.path, and any other
copy is refused, so each checkout runs its own code whatever is installed or
on PYTHONPATH.  BLAS runs on one thread, as in the benchmark, or on
`--threads N`: the thread variables are set before numpy is imported, and
N may not exceed the CPUs this process may run on, so two runs that differ
only in N show whether an output depends on the BLAS thread count.

Usage: python scripts/output_digests.py --seeds 1 2 [--scale tiny] [--threads N]
"""

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_cli():
    """corrdyn.cli from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import corrdyn

    if Path(corrdyn.__file__).resolve().parent != src / "corrdyn":
        raise SystemExit(f"error: corrdyn imported from {corrdyn.__file__}, not {src}")
    from corrdyn import cli

    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if not 1 <= args.threads <= cpus:
        parser.error(f"--threads must be from 1 to {cpus}, the CPUs available, got {args.threads}")

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.threads)
    cli = import_cli()
    sys.path.insert(1, str(ROOT / "perfbench"))
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name in workloads.NAMES:
                work = Path(tmp) / f"{name}-{seed}"
                wl = workloads.build(name, seed, args.scale)
                paths, _ = workloads.write_configs(wl, work / "configs")
                for path in paths:
                    out = work / path.stem
                    out.mkdir()
                    code = cli.run(path, out)
                    if code != 0:
                        print(f"error: {name} seed {seed} {path.name} exited {code}",
                              file=sys.stderr)
                        return 1
                    for f in sorted(out.iterdir()):
                        digest = hashlib.sha256(f.read_bytes()).hexdigest()
                        print(name, seed, path.name, f.name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
