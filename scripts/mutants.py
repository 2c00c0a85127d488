#!/usr/bin/env python3
"""Apply each listed mutant to a copy of this checkout and run tier-1 on it.

A mutant is one (file, old, new, tests) entry: a text replacement in src/,
where `old` occurs exactly once, and the test file expected to catch it.
For each mutant the checkout is copied to a temporary directory, the
checkout itself is never edited, the replacement is made in the copy, and
the copy's tests run with bytecode writing off: the named file first, and
the rest of tier-1 only if that file passes, so a mutant caught where it
is expected to be costs one file's run.  A mutant that makes a test fail
is CAUGHT, and the first failing test is named; one that leaves every test
passing SURVIVED.  The exit status is the number of survivors.

The copy's run leaves out SELF_TEST, which checks this list against the
files it lies in: in a mutated copy it would fail for every mutant and
report each one CAUGHT whatever the other tests do.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    ("src/corrdyn/density.py", "TRACE_TOL = 1e-12", "TRACE_TOL = 1e-6", "tests/test_density.py"),
    (
        "src/corrdyn/density.py",
        "HERMITICITY_TOL = 1e-12",
        "HERMITICITY_TOL = 1e-6",
        "tests/test_density.py",
    ),
    (
        "src/corrdyn/density.py",
        "if np.max(np.abs(coef.imag)) > 1e-10:",
        "if np.max(np.abs(coef.imag)) > 1e-3:",
        "tests/test_density.py",
    ),
    (
        "src/corrdyn/dynamics.py",
        "if not residual <= 1e-10:",
        "if not residual <= 1e-2:",
        "tests/test_spectral_reference.py",
    ),
    (
        "src/corrdyn/dynamics.py",
        "if dist.min() <= 1e-10:",
        "if dist.min() <= 1e-14:",
        "tests/test_dynamics.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "return float(np.max(np.abs(d.data))) if d.nnz else 0.0",
        "return 0.0",
        "tests/test_hierarchy.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "check(work, WORK_CAP,",
        "check(work, 2 * WORK_CAP,",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "matvecs = 4 * n_steps",
        "matvecs = 2 * n_steps",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "np.abs(h.fields).sum() + sum(np.abs(v).sum() for v in h.couplings.values())",
        "np.abs(h.fields).sum()",
        "tests/test_dynamics_reference.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        '    admit(h.n_sites, ["generator"], h)\n    return Generator(h)',
        "    return Generator(h)",
        "tests/test_hierarchy.py",
    ),
    ("src/corrdyn/cli.py", "if not math.isfinite(x):", "if False:", "tests/test_cli.py"),
    (
        "src/corrdyn/dynamics.py",
        "if not dt * norm_bound(h) <= 1.0:",
        "if not dt * norm_bound(h) <= 2.0:",
        "tests/test_dynamics.py",
    ),
    ("src/corrdyn/dynamics.py", "if low > 1.0:", "if low > 0.5:", "tests/test_dynamics.py"),
    (
        "src/corrdyn/hierarchy.py",
        "        if c:\n            blocks.append",
        "        if scale * c:\n            blocks.append",
        "tests/test_generator_reference.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "csr_matrix((m.data * h,",
        "csr_matrix((m.data,",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "return _assemble(self.hamiltonian, h)",
        "return _assemble(self.hamiltonian, 1.0)",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "        need += lengths * (8 * generator_nnz(h) + 4 * (4**h.n_sites + 1))",
        "        pass",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "lengths * (8 * generator_nnz(h) + 4 * (4**h.n_sites + 1))",
        "lengths * 8 * generator_nnz(h)",
        "tests/test_dynamics.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "ROW_CHUNK = 4**4",
        "ROW_CHUNK = 4**6",
        "tests/test_generator_reference.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "check(need, DECOMPOSE_WORK_CAP,",
        "check(need, DECOMPOSE_WORK_CAP / 20,",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "check(4**n_sites, DENSE_DIM_CAP,",
        "check(4**n_sites, DENSE_DIM_CAP // 4,",
        "tests/test_hierarchy.py",
    ),
    (
        "src/corrdyn/decomposition.py",
        "_pair_digits(singles[j])",
        "_pair_digits(np.transpose(singles[j]))",
        "tests/test_decomposition_reference.py",
    ),
    (
        "src/corrdyn/decomposition.py",
        "for b in p[1:]:",
        "for b in p[2:]:",
        "tests/test_decomposition_reference.py",
    ),
    (
        "src/corrdyn/decomposition.py",
        "        mask = check_mask(mask)\n        if mask.bit_count() < 2:",
        "        if mask.bit_count() < 2:",
        "tests/test_decomposition.py",
    ),
    (
        "src/corrdyn/hierarchy.py",
        "add(sel, shift, s, v[alpha - 1, muj - 1])",
        "add(sel, shift, s, v[muj - 1, alpha - 1])",
        "tests/test_energy_conservation.py",
    ),
    (
        "src/corrdyn/hamiltonian.py",
        'object.__setattr__(self, "n_sites", int(self.n_sites))',
        'object.__setattr__(self, "n_sites", self.n_sites)',
        "tests/test_hierarchy.py",
    ),
    (
        "src/corrdyn/cli.py",
        "return np.sqrt(np.sum(m.real**2 + m.imag**2))",
        "return np.linalg.norm(m)",
        "tests/test_cli.py",
    ),
    (
        "src/corrdyn/pauli.py",
        "w = (w.reshape(d_in, -1).T @ t.T).reshape(-1)",
        "w = (w.reshape(d_in, -1).T @ t).reshape(-1)",
        "tests/test_pauli.py",
    ),
    (
        "src/corrdyn/decomposition.py",
        "_B_BUILD[:, 1:]) / 2**k, k)",
        "_B_BUILD[:, 1:]), k)",
        "tests/test_decomposition_reference.py",
    ),
]

# checks that each `old` occurs once; it cannot hold in a mutated copy
SELF_TEST = "tests/test_scripts.py::test_each_mutant_applies_to_this_checkout"

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def mutate(root: Path, file: str, old: str, new: str) -> None:
    path = root / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"error: {old!r} occurs {text.count(old)} times in {file}")
    path.write_text(text.replace(old, new))


def _pytest(copy: Path, env: dict, *args: str) -> str | None:
    """The first test that fails in a pytest run with -x on the copy, or
    None when every test passes."""
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
            "-p", "no:cacheprovider", "--deselect", SELF_TEST, *args,
        ],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return None
    if proc.returncode in (4, 5):  # a bad path or nothing collected: no verdict
        raise SystemExit(f"error: pytest exit {proc.returncode} on {args}")
    failed = [
        line.split()[1]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    ]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def first_failure(file: str, old: str, new: str, tests: str) -> str | None:
    """The first test that fails on a copy of the checkout with this mutant
    applied, in the file `tests` or else in the rest of tier-1, or None when
    tier-1 passes there."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        mutate(copy, file, old, new)
        env = {
            **os.environ,
            "PYTHONPATH": str(copy / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
        }
        return _pytest(copy, env, tests) or _pytest(copy, env, "--ignore", tests)


def main() -> int:
    survived = 0
    for file, old, new, tests in MUTANTS:
        failure = first_failure(file, old, new, tests)
        survived += failure is None
        verdict = "SURVIVED" if failure is None else f"CAUGHT by {failure}"
        print(f"{verdict}: {file}: {old!r} -> {new!r}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} caught")
    return survived


if __name__ == "__main__":
    sys.exit(main())
