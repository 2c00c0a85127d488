"""Per-sample reference for the exponential-action backend of `evolve`.

`evolve_expm_per_sample` calls scipy's `expm_multiply` afresh for every
recorded interval, on the same time grid as `corrdyn.dynamics.evolve`, so
scipy re-scales M, takes its 1-norm and chooses the Taylor degree and
scaling each time.  It is the slow path the planned kernel of
`evolve(method="expm")` is checked against bit for bit.
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
