"""Time evolution, resolvent and spectral analysis of the correlator system.

Two evolution backends cross-validate each other: a fixed-step classical
RK4 integrator, and exponential action exp(M t) x applied by scaled
truncated-Taylor sparse matvecs.  The resolvent G(z) = (z I - M)^{-1} is a
dense solve; the spectrum comes from diagonalizing the Hermitian matrix i M,
whose eigenvalues sit at every level difference of the Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .density import CorrelatorVector
from .errors import DivergentSeriesError, PoleProximityError, SizeCapError, StepTooLargeError
from .hierarchy import Generator
from .pauli import Observable

DENSE_DIM_CAP = 4**6


@dataclass(frozen=True)
class Trajectory:
    """Correlator supervector sampled along a time grid."""

    n_sites: int
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size, 4**self.n_sites):
            raise ValueError("trajectory shape mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def state(self, k: int) -> CorrelatorVector:
        return CorrelatorVector(self.n_sites, self.values[k])

    def expectation(self, obs: Observable) -> np.ndarray:
        """Time series of an observable; complex for ladder combinations."""
        out = np.zeros(self.times.size, dtype=complex)
        for w, c in obs.terms:
            out += w * self.values[:, c]
        return out

    def sector_norms(self) -> np.ndarray:
        """sqrt(sum of squared nonidentity slots) at each time; conserved."""
        return np.linalg.norm(self.values[:, 1:], axis=1)


def _rk4_step(m, x, dt):
    k1 = m @ x
    k2 = m @ (x + 0.5 * dt * k1)
    k3 = m @ (x + 0.5 * dt * k2)
    k4 = m @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _budget_step(norm: float, budget: float = 0.1) -> float:
    return budget / norm if norm > 0 else 1.0


def default_step(gen: Generator, budget: float = 0.1) -> float:
    """Step size with dt * ||M||_inf = budget (1.0 if M vanishes)."""
    return _budget_step(gen.infinity_norm(), budget)


def evolve(
    gen: Generator,
    x0: CorrelatorVector,
    t_max: float,
    dt: float | None = None,
    stride: int = 1,
    method: str = "rk4",
) -> Trajectory:
    """Propagate x(t) = exp(M t) x0, recording every `stride`-th step.

    method "rk4" is the fixed-step integrator; "expm" applies the matrix
    exponential action and conserves the sector norm to near machine
    precision.  t_max is rounded to a whole number of steps.
    """
    if x0.n_sites != gen.n_sites:
        raise ValueError("state and generator site counts differ")
    norm = gen.infinity_norm()
    if dt is None:
        dt = _budget_step(norm)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if dt * norm > 1.0:
        raise StepTooLargeError(f"step too large: dt*||M|| = {dt * norm:.3g} > 1")
    n_steps = max(1, int(round(t_max / dt)))
    rec = list(range(0, n_steps + 1, stride))
    if rec[-1] != n_steps:
        rec.append(n_steps)
    times = np.array([k * dt for k in rec])

    m = gen.matrix
    if method == "rk4":
        out = np.empty((len(rec), gen.dim))
        x = np.array(x0.values, dtype=float)
        out[0] = x
        nxt = 1
        for k in range(1, n_steps + 1):
            x = _rk4_step(m, x, dt)
            if nxt < len(rec) and k == rec[nxt]:
                out[nxt] = x
                nxt += 1
    elif method == "expm":
        out = np.empty((len(rec), gen.dim))
        x = np.array(x0.values, dtype=float)
        out[0] = x
        prev = 0
        for row, k in enumerate(rec[1:], start=1):
            x = spla.expm_multiply(m * ((k - prev) * dt), x)
            out[row] = x
            prev = k
    else:
        raise ValueError(f"unknown method {method!r}")
    return Trajectory(gen.n_sites, times, out)


def _generator_eigenvalues(gen: Generator) -> np.ndarray:
    """Real frequencies lambda with M eigenvalues i*lambda (nonidentity sector)."""
    if gen._eigvals is None:
        dense = gen.matrix.toarray()[1:, 1:]
        gen._eigvals = np.linalg.eigvalsh(1j * dense)
    return gen._eigvals


def resolvent(gen: Generator, z: complex) -> np.ndarray:
    """G(z) = (z I - M)^{-1} as a dense complex matrix over all 4**N slots.

    The identity slot contributes a decoupled pole 1/z at (0, 0).  Raises
    PoleProximityError at or near any pole i*lambda of the generator.
    """
    if gen.dim > DENSE_DIM_CAP:
        raise SizeCapError(f"dense resolvent capped at dimension {DENSE_DIM_CAP}")
    lam = np.concatenate(([0.0], _generator_eigenvalues(gen)))
    dist = np.abs(z - 1j * lam)
    nearest = lam[np.argmin(dist)]
    if dist.min() <= 1e-10:
        raise PoleProximityError(
            f"z = {z} is within {dist.min():.2e} of the pole {1j * nearest}",
            nearest_pole=1j * nearest,
        )
    a = z * np.eye(gen.dim, dtype=complex) - gen.matrix.toarray()
    g = np.linalg.solve(a, np.eye(gen.dim, dtype=complex))
    residual = float(np.max(np.abs(a @ g - np.eye(gen.dim))))
    if residual > 1e-10:
        raise PoleProximityError(
            f"solve residual {residual:.2e} too large; nearest pole {1j * nearest}",
            nearest_pole=1j * nearest,
        )
    return g


@dataclass(frozen=True)
class SpectralReport:
    """Distinct oscillation frequencies of the correlator system.

    frequencies/multiplicities describe the positive eigenvalues of the
    Hermitian matrix i M merged within the degeneracy tolerance; kernel_dim
    counts (near-)zero eigenvalues of the nonidentity sector.  density is
    the Lorentzian-broadened pole density sampled on omega."""

    frequencies: np.ndarray
    multiplicities: np.ndarray
    kernel_dim: int
    broadening: float
    omega: np.ndarray
    density: np.ndarray


def spectrum(
    gen: Generator,
    broadening: float | None = None,
    omega_grid: np.ndarray | None = None,
    merge_tol: float = 1e-9,
) -> SpectralReport:
    """Eigenfrequency report of the generator.

    Frequencies closer than merge_tol * ||M|| are reported once with their
    multiplicity.  The default broadening is 10x the mean spacing of the
    detected distinct frequencies, kept deliberately coarser than the
    typical pole separation.
    """
    if gen.dim > DENSE_DIM_CAP:
        raise SizeCapError(f"dense eigensolve capped at dimension {DENSE_DIM_CAP}")
    lam = _generator_eigenvalues(gen)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    tol = merge_tol * max(scale, 1e-300)
    kernel_dim = int(np.sum(np.abs(lam) < tol)) if scale > 0 else lam.size

    pos = np.sort(lam[lam >= tol]) if scale > 0 else np.array([])
    freqs: list[float] = []
    mults: list[int] = []
    for w in pos:
        if freqs and w - freqs[-1] <= tol:
            # running mean of the merged cluster
            freqs[-1] += (w - freqs[-1]) / (mults[-1] + 1)
            mults[-1] += 1
        else:
            freqs.append(float(w))
            mults.append(1)
    frequencies = np.array(freqs)
    multiplicities = np.array(mults, dtype=int)

    if broadening is None:
        if len(frequencies) >= 2:
            broadening = 10.0 * float(np.mean(np.diff(frequencies)))
        else:
            broadening = 0.1 * max(scale, 1.0)
    if omega_grid is None:
        top = 1.2 * scale if scale > 0 else 1.0
        omega_grid = np.linspace(0.0, top, 513)
    omega_grid = np.asarray(omega_grid, dtype=float)
    density = np.zeros_like(omega_grid)
    for w in lam:
        density += broadening / np.pi / ((omega_grid - w) ** 2 + broadening**2)
    return SpectralReport(
        frequencies, multiplicities, kernel_dim, float(broadening), omega_grid, density
    )


def _block_resolvent(m: np.ndarray, z: complex) -> np.ndarray:
    a = z * np.eye(len(m), dtype=complex) - m
    g = np.linalg.solve(a, np.eye(len(m), dtype=complex))
    residual = float(np.max(np.abs(a @ g - np.eye(len(m)))))
    if residual > 1e-10:
        raise PoleProximityError(
            f"uncoupled resolvent solve residual {residual:.2e}: z too close to a pole"
        )
    return g


def dyson_series(
    diag: dict[str, np.ndarray],
    inter: dict[tuple[str, str], np.ndarray],
    z: complex,
    order: int,
) -> np.ndarray:
    """Perturbative resolvent G0 sum_{n<=order} (V G0)^n in sector layout.

    diag holds the uncoupled sector generators ("1", "m", "2") and inter the
    interaction blocks, as produced by hierarchy.decompose_blocks.  Raises
    DivergentSeriesError when ||V G0|| >= 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
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
