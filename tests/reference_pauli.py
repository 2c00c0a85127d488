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


def tensordot_site_map(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A 4x4 map on every base-4 digit of the first axis, one `tensordot` and
    `moveaxis` per site: the slow path for `pauli._apply_site_map`."""
    values = np.asarray(values, dtype=complex)
    n = round(np.log(values.shape[0]) / np.log(4))
    assert 4**n == values.shape[0]
    w = values.reshape((4,) * n + values.shape[1:])
    for k in range(n):
        w = np.moveaxis(np.tensordot(t, w, axes=([1], [k])), 0, k)
    return w.reshape(values.shape)


def padded_site_map(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """A 4x3 map `t` on every base-3 digit, as the 4x4 map [0 | t] on the
    coefficients zero-padded to digit 0 of every site."""
    n = round(np.log(coeffs.shape[0]) / np.log(3))
    assert 3**n == coeffs.shape[0]
    batch = coeffs.shape[1:]
    padded = np.zeros((4,) * n + batch, dtype=complex)
    padded[(slice(1, None),) * n] = coeffs.reshape((3,) * n + batch)
    full = np.hstack([np.zeros((4, 1)), t])
    return tensordot_site_map(padded.reshape((4**n,) + batch), full)


def kron_site_map(n: int, t: np.ndarray) -> np.ndarray:
    """The dense map t (x) ... (x) t over n sites, site 0 on the last factor."""
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, t)
    return out
