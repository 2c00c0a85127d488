"""Spin-1/2 Hamiltonians with local fields and pairwise couplings.

H = sum_i (1/2) h_i . sigma_i + sum_{i<j} (1/2) V_ij^{mu nu} sigma_i^mu sigma_j^nu

with hbar = 1, so fields and couplings carry angular-frequency units.  Each
coupling tensor is stored once per unordered pair; accessing the reversed
pair transposes it, V_ji^{nu mu} = V_ij^{mu nu}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .combinatorics import bit_indices


def _is_integer(x) -> bool:
    """An int or numpy integer, a bool excluded."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SpinHamiltonian:
    n_sites: int
    fields: np.ndarray
    couplings: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not _is_integer(self.n_sites):
            raise ValueError("n_sites must be an integer")
        object.__setattr__(self, "n_sites", int(self.n_sites))  # 4**N must not wrap
        f = np.asarray(self.fields, dtype=float)
        if f.shape != (self.n_sites, 3):
            raise ValueError(f"fields must be ({self.n_sites}, 3)")
        if not np.isfinite(f).all():
            raise ValueError("fields must be finite")
        object.__setattr__(self, "fields", f)
        clean = {}
        for (i, j), v in self.couplings.items():
            if not (_is_integer(i) and _is_integer(j)):
                raise ValueError(f"coupling pair ({i}, {j}) must hold integer sites")
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("no self-coupling")
            if not (0 <= i < j < self.n_sites):
                raise ValueError(f"coupling pair ({i}, {j}) must satisfy 0 <= i < j < N")
            v = np.asarray(v, dtype=float)
            if v.shape != (3, 3):
                raise ValueError("coupling tensors must be 3x3")
            if not np.isfinite(v).all():
                raise ValueError(f"coupling tensor ({i}, {j}) must be finite")
            clean[(i, j)] = v
        object.__setattr__(self, "couplings", clean)
        # one pass over the sorted pairs leaves every partner list ascending:
        # the pairs (i, s) with i < s all sort before the pairs (s, j)
        partners: list[list[int]] = [[] for _ in range(self.n_sites)]
        for i, j in sorted(clean):
            partners[i].append(j)
            partners[j].append(i)
        object.__setattr__(self, "_partners", tuple(map(tuple, partners)))

    def coupling(self, i: int, j: int) -> np.ndarray | None:
        """V_ij with the transpose access rule; None if the pair is uncoupled."""
        if i < j:
            return self.couplings.get((i, j))
        v = self.couplings.get((j, i))
        return None if v is None else v.T

    def partners(self, i: int) -> tuple[int, ...]:
        """Sites coupled to i."""
        return self._partners[i]


def restrict(h: SpinHamiltonian, subset: int) -> SpinHamiltonian:
    """Hamiltonian of the subset alone, sites renumbered ascending."""
    sites = bit_indices(subset)
    pos = {s: k for k, s in enumerate(sites)}
    couplings = {
        (pos[i], pos[j]): v
        for (i, j), v in h.couplings.items()
        if subset >> i & 1 and subset >> j & 1
    }
    return SpinHamiltonian(len(sites), h.fields[sites], couplings)


def transverse_pair(delta1: float, delta2: float, omega: float) -> SpinHamiltonian:
    """Two spins with transverse fields and a longitudinal zz coupling:

    H = (1/2)(delta1 sigma_0^x + delta2 sigma_1^x + omega sigma_0^z sigma_1^z),

    the standard closed-form two-spin benchmark.
    """
    v = np.zeros((3, 3))
    v[2, 2] = omega
    return SpinHamiltonian(
        2, np.array([[delta1, 0.0, 0.0], [delta2, 0.0, 0.0]]), {(0, 1): v}
    )

