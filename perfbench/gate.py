"""Correctness gate: every output file of a run against an independent reference.

`check(config, out_dir)` returns a list of problems; an empty list passes.
References come from the dense oracle (one diagonalisation of the 2**N x 2**N
Hamiltonian), never from the generator M the program builds, and tolerances
are the ones the test suite states for the same quantities.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from corrdyn import oracle, states
from corrdyn.decomposition import TRACE_ZERO_TOL
from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.pauli import parse_label

# max |trajectory - oracle| per method (acceptance criterion 5)
TRAJECTORY_TOL = {"rk4": 1e-6, "expm": 1e-6}
# spectrum() merges frequencies within FREQ_MERGE_TOL * max|frequency|
FREQ_MERGE_TOL = 1e-9
FREQ_TOL = 1e-9  # acceptance criterion 7
RESOLVENT_REL_TOL = 1e-8  # acceptance criterion 10
RECONSTRUCTION_TOL = 1e-12  # decomposition tests

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def hamiltonian(cfg: dict) -> SpinHamiltonian:
    couplings = {(c["i"], c["j"]): np.array(c["tensor"]) for c in cfg.get("couplings", [])}
    return SpinHamiltonian(cfg["sites"], np.array(cfg["fields"]), couplings)


def initial_density(cfg: dict):
    n, desc = cfg["sites"], cfg["initial_state"]
    if "product" in desc:
        return states.bloch_product(desc["product"])
    named = desc["named"]
    if named["name"] == "cat":
        return states.cat_state(n, float(named.get("phase", 0.0)))
    return {"ghz": states.ghz_state, "w": states.w_state}[named["name"]](n)


def pauli_matrix(label: str, n: int) -> np.ndarray:
    """Dense matrix of a Cartesian label such as 'x0 z2' (site 0 least significant)."""
    axes = {int(tok[1:]): tok[0] for tok in label.split()}
    out = np.eye(1, dtype=complex)
    for site in range(n - 1, -1, -1):
        out = np.kron(out, _PAULI[axes[site]] if site in axes else np.eye(2))
    return out


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _time_grid(cfg: dict) -> np.ndarray:
    """Recorded times, as dynamics.evolve rounds t_max to whole steps."""
    t = cfg["time"]
    n_steps = max(1, int(round(t["t_max"] / t["dt"])))
    rec = list(range(0, n_steps + 1, t.get("stride", 1)))
    if rec[-1] != n_steps:
        rec.append(n_steps)
    return np.array([k * t["dt"] for k in rec])


def check_trajectory(cfg: dict, path: Path) -> list[str]:
    header, rows = _read_csv(path)
    times = _time_grid(cfg)
    if len(rows) != times.size:
        return [f"trajectory.csv has {len(rows)} rows, expected {times.size}"]
    data = np.array([[float(v) for v in row] for row in rows])
    if np.max(np.abs(data[:, 0] - times)) > 1e-12:
        return ["trajectory.csv times are off the configured grid"]
    n = cfg["sites"]
    ref = oracle.correlator_trajectory(hamiltonian(cfg), initial_density(cfg), times)
    want_header, columns = ["t"], []
    for label in cfg["observables"]:
        obs = parse_label(label, n)
        series = ref.expectation(obs)
        if all(w.imag == 0 for w, _ in obs.terms):
            want_header.append(label)
            columns.append(series.real)
        else:
            want_header += [f"{label}.re", f"{label}.im"]
            columns += [series.real, series.imag]
    if header != want_header:
        return [f"trajectory.csv header {header} != {want_header}"]
    err = float(np.max(np.abs(data[:, 1:] - np.array(columns).T)))
    tol = TRAJECTORY_TOL[cfg.get("method", "rk4")]
    return [] if err < tol else [f"trajectory deviates from oracle by {err:.3g} >= {tol}"]


def check_spectrum(cfg: dict, path: Path) -> list[str]:
    _, rows = _read_csv(path)
    freqs = np.array([float(r[0]) for r in rows])
    mults = np.array([int(r[1]) for r in rows])
    if np.any(mults < 1):
        return ["spectrum.csv has a multiplicity below 1"]
    got = np.repeat(freqs, mults)
    diffs = oracle.energy_differences(oracle.eigensystem(hamiltonian(cfg)))
    # differences below the merge tolerance are kernel, not frequencies
    want = diffs[diffs > FREQ_MERGE_TOL * diffs.max()] if diffs.size else diffs
    if got.size != want.size:
        return [f"spectrum.csv expands to {got.size} frequencies, oracle has {want.size}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err < FREQ_TOL else [f"spectrum deviates from oracle by {err:.3g}"]


def reference_resolvent(cfg: dict, z: complex, labels: list[str]) -> np.ndarray:
    """G(z) entries from the Hamiltonian eigenbasis, without a dense solve of M.

    [exp(M t)]_rc = 2**-N tr(P_r U(t) P_c U(t)^dagger); its Laplace transform is
    2**-N sum_mn (A_r)_nm (A_c)_mn / (z + i (E_m - E_n)) with A = V^dagger P V.
    """
    n = cfg["sites"]
    es = oracle.eigensystem(hamiltonian(cfg))
    e = es.energies
    weight = 1.0 / (z + 1j * (e[:, None] - e[None, :]))
    a = [es.vectors.conj().T @ pauli_matrix(lb, n) @ es.vectors for lb in labels]
    return np.array(
        [[np.sum(ar.T * ac * weight) / 2**n for ac in a] for ar in a]
    )


def check_resolvent(cfg: dict, path: Path) -> list[str]:
    _, rows = _read_csv(path)
    labels = cfg["observables"]
    zs = [complex(re, im) for re, im in cfg["resolvent"]["z"]]
    if len(rows) != len(zs) * len(labels) ** 2:
        return [f"resolvent.csv has {len(rows)} rows"]
    problems = []
    k = 0
    for z in zs:
        ref = reference_resolvent(cfg, z, labels)
        scale = max(1.0, float(np.max(np.abs(ref))))
        for r, lr in enumerate(labels):
            for c, lc in enumerate(labels):
                re_z, im_z, row, col, re_g, im_g = rows[k]
                k += 1
                if (row, col) != (lr, lc) or complex(float(re_z), float(im_z)) != z:
                    return [f"resolvent.csv row {k} is for the wrong entry"]
                err = abs(complex(float(re_g), float(im_g)) - ref[r, c])
                if not err <= RESOLVENT_REL_TOL * scale:
                    problems.append(f"G({z})[{lr},{lc}] off by {err:.3g}")
    return problems


def check_validate(path: Path) -> list[str]:
    report = dict(line.split("=", 1) for line in path.read_text().splitlines())
    return [] if report.get("status") == "ok" else [f"validate status {report.get('status')}"]


def check_decomposition(cfg: dict, path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    subsets = [ln for ln in lines if ln.startswith("subset=")]
    problems = []
    if len(subsets) != 2 ** cfg["sites"] - 1:
        problems.append(f"decomposition.txt lists {len(subsets)} subsets")
    values = [float(tok.split("=")[1]) for ln in subsets for tok in ln.split()[1:]]
    if not all(math.isfinite(v) for v in values):
        problems.append("decomposition.txt has a non-finite norm")
    report = dict(ln.split("=", 1) for ln in lines if not ln.startswith("subset="))
    limits = {
        "max_single_cell_trace": TRACE_ZERO_TOL,
        "reconstruction_error": RECONSTRUCTION_TOL,
        "cumulant_reconstruction_error": RECONSTRUCTION_TOL,
    }
    for key, tol in limits.items():
        value = float(report.get(key, "nan"))
        if not value < tol:
            problems.append(f"{key}={value:.3g} not below {tol}")
    return problems


def check(cfg: dict, out_dir: Path) -> list[str]:
    """Problems with the output files of one successful run of `cfg`."""
    expected = {
        "evolve": ("trajectory.csv", lambda p: check_trajectory(cfg, p)),
        "spectrum": ("spectrum.csv", lambda p: check_spectrum(cfg, p)),
        "resolvent": ("resolvent.csv", lambda p: check_resolvent(cfg, p)),
        "validate": ("validate.txt", check_validate),
        "decompose": ("decomposition.txt", lambda p: check_decomposition(cfg, p)),
    }
    problems = []
    for task in cfg["tasks"]:
        name, fn = expected[task]
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        try:
            problems += fn(path)
        except (ValueError, IndexError, KeyError) as exc:
            problems.append(f"{name} unreadable: {exc!r}")
    return problems
