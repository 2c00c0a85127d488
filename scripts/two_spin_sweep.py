#!/usr/bin/env python3
"""Sweep the zz coupling of the transverse two-spin benchmark.

For each coupling strength the oscillation frequencies are computed three
ways: from the closed-form level splitting, from the generator spectrum, and
from exact diagonalization of the 4x4 Hamiltonian.  The levels of H are
+-eps1 and +-eps2 with eps1 = sqrt(omega^2 + (delta1+delta2)^2)/2 and
eps2 = sqrt(omega^2 + (delta1-delta2)^2)/2, and the frequencies are their
differences w10 = eps1-eps2, w20 = eps1+eps2, w30 = 2 eps1 and w21 = 2 eps2.
The CSV on stdout has one row per coupling with all three routes side by
side, so any disagreement is immediately visible.

Usage: python scripts/two_spin_sweep.py [delta1 delta2 omega_max steps]
"""

import sys

import numpy as np

from corrdyn import build_generator, eigensystem, spectrum, transverse_pair
from corrdyn.oracle import energy_differences


def main(argv):
    delta1 = float(argv[1]) if len(argv) > 1 else 0.8
    delta2 = float(argv[2]) if len(argv) > 2 else 0.6
    omega_max = float(argv[3]) if len(argv) > 3 else 2.0
    steps = int(argv[4]) if len(argv) > 4 else 21

    print("omega,w10,w20,w30,w21,spectrum_max_err,oracle_max_err")
    for omega in np.linspace(0.0, omega_max, steps):
        eps1 = 0.5 * np.sqrt(omega**2 + (delta1 + delta2) ** 2)
        eps2 = 0.5 * np.sqrt(omega**2 + (delta1 - delta2) ** 2)
        w10, w20, w30, w21 = eps1 - eps2, eps1 + eps2, 2.0 * eps1, 2.0 * eps2
        closed = np.sort(np.array([w10, w20, w30, w21]))

        ham = transverse_pair(delta1, delta2, omega)
        rep = spectrum(build_generator(ham))
        numeric = np.sort(np.repeat(rep.frequencies, rep.multiplicities))
        # the generator sees each mixed-sector frequency twice
        closed_full = np.sort(np.concatenate([closed, [w10, w20]]))
        spec_err = np.max(np.abs(numeric - closed_full))

        diffs = np.sort(energy_differences(eigensystem(ham)))
        oracle_err = np.max(np.abs(diffs - closed_full))

        row = [omega, w10, w20, w30, w21, spec_err, oracle_err]
        print(",".join(format(v, ".12g") for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
