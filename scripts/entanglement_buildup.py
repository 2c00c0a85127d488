#!/usr/bin/env python3
"""Watch pairwise and three-site correlations grow in a coupled spin chain.

Three spins start in a product state (all polarized along +x) and interact
through nearest-neighbour zz couplings under a transverse field.  The
hierarchy generator propagates the full correlator supervector; at each
sample time the connected pair and triple correlators quantify how much
entanglement structure has built up, and the exact-evolution oracle bounds
the integration error.

Usage: python scripts/entanglement_buildup.py [t_max coupling]
"""

import sys

import numpy as np

from corrdyn import SpinHamiltonian, build_generator, evolve, extract_correlators
from corrdyn.decomposition import connected_pair, connected_triple
from corrdyn.density import CorrelatorVector, purity_from_correlators
from corrdyn.oracle import correlator_trajectory
from corrdyn.states import bloch_product


def main(argv):
    t_max = float(argv[1]) if len(argv) > 1 else 8.0
    coupling = float(argv[2]) if len(argv) > 2 else 0.6

    v = np.zeros((3, 3))
    v[2, 2] = coupling
    ham = SpinHamiltonian(
        3,
        [[0.0, 0.0, 0.4], [0.0, 0.0, 0.4], [0.0, 0.0, 0.4]],
        {(0, 1): v, (1, 2): v},
    )
    rho0 = bloch_product([[1.0, 0.0, 0.0]] * 3)
    x0 = extract_correlators(rho0)

    gen = build_generator(ham)
    traj = evolve(gen, x0, t_max, dt=0.005, stride=80, method="expm")
    ref = correlator_trajectory(ham, rho0, traj.times)
    worst = np.max(np.abs(traj.values - ref.values))

    print("t,pair01_xx,pair02_xx,triple_xxx,purity_sum")
    for k, t in enumerate(traj.times):
        state = CorrelatorVector(3, traj.values[k])
        row = [
            t,
            connected_pair(state, 0, 1, "x", "x"),
            connected_pair(state, 0, 2, "x", "x"),
            connected_triple(state, (0, 1, 2), ("x", "x", "x")),
            purity_from_correlators(state),
        ]
        print(",".join(format(val, ".12g") for val in row))
    print(f"# max deviation from exact evolution: {worst:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
