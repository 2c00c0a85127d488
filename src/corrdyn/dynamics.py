"""Time evolution, resolvent and spectral analysis of the correlator system.

Two evolution backends cross-validate each other: a fixed-step classical
RK4 integrator, and exponential action exp(M t) x applied by scaled
truncated-Taylor sparse matvecs.

M is the Pauli-basis form of the commutator -i[H, .], so its eigenvalues
are i(E_n - E_m) over all pairs of levels of H, with eigenvectors the Pauli
coefficients of V|m><n|V^dagger.  The spectrum and the resolvent
G(z) = (z I - M)^{-1} are therefore built from one 2**N x 2**N
diagonalization of H instead of a dense 4**N eigensolve or solve.  Neither
answer is trusted on that route alone: every resolvent column is certified
by the residual of (z I - M) G with sparse matvecs on the hierarchy M, and
eigenpair_residual certifies every eigenpair the spectrum rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .density import CorrelatorVector, pauli_coefficients
from .errors import DivergentSeriesError, PoleProximityError, SizeCapError, StepTooLargeError
from .hierarchy import Generator
from .pauli import Observable, PauliString

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
    """Real frequencies lambda with M eigenvalues i*lambda (nonidentity sector).

    All level differences E_n - E_m, ascending, less one exact diagonal zero
    for the inert identity slot: 4**N - 1 values.
    """
    e = gen.eigensystem().energies
    diffs = (e[None, :] - e[:, None]).ravel()
    return np.sort(np.delete(diffs, 0))


def _apply_real(m, x: np.ndarray) -> np.ndarray:
    """m @ x for real sparse m and complex x, as one real product on (re, im) pairs."""
    return (m @ np.ascontiguousarray(x).view(float)).view(complex)


def resolvent(gen: Generator, z: complex, codes=None) -> np.ndarray:
    """G(z) = (z I - M)^{-1} restricted to the slots `codes` (all if None).

    Returns G[codes][:, codes] as a dense complex matrix; repeated codes
    repeat rows and columns.  Column b is 2**-N tr(P_a V((V^dag P_b V) . W)
    V^dag) over every slot a, with W_mn = 1/(z + i(E_m - E_n)) from the
    eigensystem of H; the identity slot gives the decoupled pole 1/z at
    (0, 0).  Each computed column must satisfy (z I - M) G[:, b] = e_b to
    1e-10, checked with sparse matvecs on M.  Raises PoleProximityError at
    or near any pole i*lambda of the generator, or when that check fails.
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
    rows = np.arange(gen.dim) if codes is None else np.asarray(codes, dtype=np.int64)
    cols, where = np.unique(rows, return_inverse=True)
    es = gen.eigensystem()
    v, e = es.vectors, es.energies
    w = 1.0 / (z + 1j * (e[:, None] - e[None, :]))
    paulis = np.array([PauliString(gen.n_sites, int(c)).matrix() for c in cols])
    inner = v.conj().T @ paulis @ v
    g = pauli_coefficients(v @ (inner * w) @ v.conj().T) / 2**gen.n_sites
    unit = np.zeros(g.shape)
    unit[cols, np.arange(cols.size)] = 1.0
    residual = float(np.max(np.abs(z * g - _apply_real(gen.matrix, g) - unit)))
    if residual > 1e-10:
        raise PoleProximityError(
            f"resolvent residual {residual:.2e} too large; nearest pole {1j * nearest}",
            nearest_pole=1j * nearest,
        )
    return g[np.ix_(rows, where)]


def eigenpair_residual(gen: Generator) -> float:
    """max over level pairs m <= n of ||M v - i w v|| / ||v||, w = E_n - E_m.

    v holds the Pauli coefficients of V|m><n|V^dagger, built from the
    eigensystem of H and tested against the hierarchy M by sparse matvecs,
    one batch per m; the pairs m > n are the complex conjugates, as M is real.
    Near zero when the spectrum of H is the spectrum of M.
    """
    es = gen.eigensystem()
    v, e = es.vectors, es.energies
    worst = 0.0
    for m in range(e.size):
        ops = v[None, :, m, None] * v[:, m:].conj().T[:, None, :]
        coef = pauli_coefficients(ops)
        defect = _apply_real(gen.matrix, coef) - 1j * (e[m:] - e[m]) * coef
        ratio = np.linalg.norm(defect, axis=0) / np.linalg.norm(coef, axis=0)
        worst = max(worst, float(ratio.max()))
    return worst


@dataclass(frozen=True)
class SpectralReport:
    """Distinct oscillation frequencies of the correlator system.

    frequencies/multiplicities describe the positive eigenvalues of the
    Hermitian matrix i M, the level differences of H, merged within the
    degeneracy tolerance; kernel_dim counts (near-)zero eigenvalues of the
    nonidentity sector.  density is the Lorentzian-broadened pole density
    sampled on omega."""

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

    The eigenvalues of i M are the 4**N - 1 level differences E_n - E_m of
    H (one diagonal zero dropped for the identity slot), from the cached
    eigensystem of H; eigenpair_residual certifies them against M.
    Frequencies closer than merge_tol * ||M|| are reported once with their
    multiplicity.  The default broadening is 10x the mean spacing of the
    detected distinct frequencies, kept deliberately coarser than the
    typical pole separation.
    """
    if gen.dim > DENSE_DIM_CAP:
        raise SizeCapError(f"spectrum capped at dimension {DENSE_DIM_CAP}")
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
