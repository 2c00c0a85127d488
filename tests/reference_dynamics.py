"""Slow paths for the two backends of `evolve`.

`evolve_expm_per_sample` calls scipy's `expm_multiply` afresh for every
recorded interval, on the same time grid as `corrdyn.dynamics.evolve`, so
scipy re-scales M, takes its 1-norm and chooses the Taylor degree and
scaling each time.  It is the slow path the planned kernel of
`evolve(method="expm")` is checked against bit for bit.

`evolve_rk4_csr` is the classical RK4 loop with every product taken on the
assembled CSR M, the reference for `evolve(method="rk4")`, which applies M
through its half split.

`dyson_series_dense` sums the Dyson series from the dense sector blocks of
`corrdyn.hierarchy.decompose_blocks`, with G0 from one dense LU solve per
uncoupled block, the reference for `dyson_series`, which takes G0 from the
eigensystem of H_0 through `resolvent`.
"""

from __future__ import annotations

import cmath

import numpy as np
import scipy.sparse.linalg as spla

from corrdyn.density import CorrelatorVector
from corrdyn.dynamics import Trajectory
from corrdyn.errors import DivergentSeriesError, PoleProximityError
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


def _block_resolvent(m: np.ndarray, z: complex) -> np.ndarray:
    a = z * np.eye(len(m), dtype=complex) - m
    try:
        g = np.linalg.solve(a, np.eye(len(m), dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise PoleProximityError(
            f"uncoupled resolvent solve failed ({exc}): z is a pole"
        ) from exc
    residual = float(np.max(np.abs(a @ g - np.eye(len(m)))))
    if not residual <= 1e-10:
        raise PoleProximityError(
            f"uncoupled resolvent solve residual {residual:.2e}: z too close to a pole"
        )
    return g


def dyson_series_dense(
    diag: dict[str, np.ndarray],
    inter: dict[tuple[str, str], np.ndarray],
    z: complex,
    order: int,
) -> np.ndarray:
    """Perturbative resolvent G0 sum_{n<=order} (V G0)^n in sector layout.

    diag holds the uncoupled sector generators ("1", "m", "2") and inter the
    interaction blocks, as produced by hierarchy.decompose_blocks.  Raises
    DivergentSeriesError when ||V G0|| >= 1, PoleProximityError when z is
    at or near a pole of an uncoupled block, and ValueError for a z that is
    not finite.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    d1, dm, d2 = (len(diag[k]) for k in ("1", "m", "2"))
    g0 = np.zeros((d1 + dm + d2,) * 2, dtype=complex)
    sl = {"1": slice(0, d1), "m": slice(d1, d1 + dm), "2": slice(d1 + dm, d1 + dm + d2)}
    for k in ("1", "m", "2"):
        g0[sl[k], sl[k]] = _block_resolvent(diag[k], z)
    v = np.zeros_like(g0)
    for (r, c), b in inter.items():
        v[sl[r], sl[c]] = b
    t = v @ g0
    growth = float(np.linalg.norm(t, 2))
    if growth >= 1.0:
        raise DivergentSeriesError(
            f"series divergent at this z: ||V G0|| = {growth:.3g} >= 1"
        )
    acc = np.eye(len(g0), dtype=complex)
    for _ in range(order):
        acc = np.eye(len(g0), dtype=complex) + t @ acc
    return g0 @ acc
