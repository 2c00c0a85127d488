"""Kronecker-chain Pauli operators: the slow path for `pauli.sum_matrix`.

`kron_matrix` is the product of single-site matrices taken one site at a
time, and `kron_hamiltonian` sums those products term by term in the order
`oracle.build_hamiltonian_matrix` lists the terms (fields site by site, then
couplings pair by pair), so the fast builder must match them bit for bit.
"""

import numpy as np

from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.pauli import PAULI, PauliString, digit


def kron_matrix(n_sites: int, code: int) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for site in range(n_sites - 1, -1, -1):
        out = np.kron(out, PAULI[digit(code, site)])
    return out


def kron_hamiltonian(h: SpinHamiltonian) -> np.ndarray:
    dim = 2**h.n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(h.n_sites):
        for a in range(3):
            hv = h.fields[i, a]
            if hv:
                code = PauliString.from_axes(h.n_sites, {i: "xyz"[a]}).code
                out += 0.5 * hv * kron_matrix(h.n_sites, code)
    for (i, j), v in h.couplings.items():
        for a in range(3):
            for b in range(3):
                if v[a, b]:
                    code = PauliString.from_axes(h.n_sites, {i: "xyz"[a], j: "xyz"[b]}).code
                    out += 0.5 * v[a, b] * kron_matrix(h.n_sites, code)
    return out
