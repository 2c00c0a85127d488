"""Slow paths for the two backends of `evolve`.

`evolve_expm_per_sample` calls scipy's `expm_multiply` afresh for every
recorded interval, on the same time grid as `corrdyn.dynamics.evolve`, so
scipy re-scales M, takes its 1-norm and chooses the Taylor degree and
scaling each time.  It is the slow path the planned kernel of
`evolve(method="expm")` is checked against bit for bit.

`evolve_rk4_csr` is the classical RK4 loop with every product taken on the
assembled CSR M, the reference for `evolve(method="rk4")`, which applies M
through its half split.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from corrdyn.density import CorrelatorVector
from corrdyn.dynamics import Trajectory
from corrdyn.hierarchy import Generator


def evolve_expm_per_sample(
    gen: Generator, x0: CorrelatorVector, t_max: float, dt: float, stride: int = 1
) -> Trajectory:
    n_steps = max(1, int(round(t_max / dt)))
    rec = list(range(0, n_steps + 1, stride))
    if rec[-1] != n_steps:
        rec.append(n_steps)
    times = np.array([k * dt for k in rec])
    m = gen.matrix
    out = np.empty((len(rec), gen.dim))
    x = np.array(x0.values, dtype=float)
    out[0] = x
    prev = 0
    for row, k in enumerate(rec[1:], start=1):
        x = spla.expm_multiply(m * ((k - prev) * dt), x)
        out[row] = x
        prev = k
    return Trajectory(gen.n_sites, times, out)


def evolve_rk4_csr(
    gen: Generator, x0: CorrelatorVector, t_max: float, dt: float, stride: int = 1
) -> Trajectory:
    n_steps = max(1, int(round(t_max / dt)))
    m = gen.matrix
    times, rows = [0.0], [np.array(x0.values, dtype=float)]
    x = rows[0]
    for k in range(1, n_steps + 1):
        k1 = m @ x
        k2 = m @ (x + 0.5 * dt * k1)
        k3 = m @ (x + 0.5 * dt * k2)
        k4 = m @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0 or k == n_steps:
            times.append(k * dt)
            rows.append(x)
    return Trajectory(gen.n_sites, np.array(times), np.array(rows))
