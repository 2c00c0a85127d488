"""Time evolution, resolvent and spectral analysis of the correlator system.

Two evolution backends cross-validate each other: a fixed-step classical
RK4 integrator, and exponential action exp(M h) x applied by scaled
truncated-Taylor sparse matvecs (Al-Mohy & Higham 2011).  The Taylor
degree and scaling depend only on hM, so they are chosen once per distinct
interval h between recorded samples, by the 1-norm rule scipy's
expm_multiply applies while ||hM||_1 <= 63.36; in that range the result is
bit-identical to calling expm_multiply per sample.  That identity is why
expm multiplies by the assembled CSR M, while RK4 applies M through
Generator.apply: from five sites on, the Kronecker sum of the generators of
the two halves of the sites plus their sparse interaction, the same M
summed in another order (below, the CSR product, which is faster there).
From five sites on the backends therefore also check that split against
the CSR M.  The scaled hM shares M's index arrays, and its 1-norm, like
||M||_inf, is summed from the arrays in scipy's order rather than from a
second matrix abs(hM), so a plan copies only M's values.  Building that
plan is the only place here that constructs a sparse matrix, so it alone
imports scipy.sparse; everything else multiplies by the M that
build_generator made.

M is the Pauli-basis form of the commutator -i[H, .], so its eigenvalues
are i(E_n - E_m) over all pairs of levels of H, with eigenvectors the Pauli
coefficients of V|m><n|V^dagger.  The spectrum and the resolvent
G(z) = (z I - M)^{-1} are therefore built from one 2**N x 2**N
diagonalization of H instead of a dense 4**N eigensolve or solve.  Neither
answer is trusted on that route alone: every resolvent column is certified
by the residual of (z I - M) G with sparse matvecs on the hierarchy M, and
eigenpair_residual certifies the eigendecomposition the spectrum rests on
by one sparse product on seeded random probes (Freivalds' check).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .density import CorrelatorVector, pauli_coefficients
from .errors import DivergentSeriesError, PoleProximityError, SizeCapError, StepTooLargeError
from .hierarchy import Generator, admit_dense
from .pauli import Observable, PauliString

if TYPE_CHECKING:
    import scipy.sparse as sp


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


def _rk4_step(apply, x, dt):
    k1 = apply(x)
    k2 = apply(x + 0.5 * dt * k1)
    k3 = apply(x + 0.5 * dt * k2)
    k4 = apply(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# theta_m: the largest ||A||_1 for which m Taylor terms give exp(A) to double
# precision (Al-Mohy & Higham 2011, Table 3.1; m <= 30 from Higham & Al-Mohy
# 2010, Table A.3).  Same values and order as scipy's expm_multiply.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_TAYLOR_TOL = 2.0**-53

# recorded samples are refused beyond this many bytes (exit 4), and time
# grids beyond this many steps, past which k * dt is no longer exact
SAMPLE_BYTES_CAP = 2 * 1024**3
STEP_CAP = 2**53
# runs are refused beyond WORK_CAP nonzero-equivalents of matvec work, each
# matvec costing nnz(M) + MATVEC_OVERHEAD: on a 2-vCPU x86-64 guest a CSR
# matvec took about 1 ns per nonzero and rk4/Taylor steps 8-16 us per
# matvec at N <= 2, so the cap is about 20 minutes of stepping
MATVEC_OVERHEAD = 10_000
WORK_CAP = 1.2e12


# _one_norm reads this many entries of a matrix at a time
_NORM_SLICE = 1 << 16


class _TaylorPlan(NamedTuple):
    """exp(a) x as s sub-steps of at most m_star Taylor terms each."""

    a: sp.csr_matrix
    m_star: int
    s: int


def _one_norm(a: sp.csr_matrix) -> float:
    """max_c sum_r |a_rc|, each column summed in entry order as scipy sums abs(a).

    The entries are taken _NORM_SLICE at a time, so no copy of a is made.
    """
    sums = np.zeros(a.shape[1])
    for lo in range(0, a.nnz, _NORM_SLICE):
        hi = lo + _NORM_SLICE
        np.add.at(sums, a.indices[lo:hi], np.abs(a.data[lo:hi]))
    return float(sums.max())


def _taylor_plan(m, h: float) -> _TaylorPlan:
    """Scale M by h and pick (m_star, s) minimising m_star * s by the 1-norm.

    s = ceil(||hM||_1 / theta_m), the rule scipy's expm_multiply applies while
    ||hM||_1 <= 63.36 (condition (3.13) of Al-Mohy & Higham); above that it
    costs more matvecs than scipy's power-norm estimates, for the same error
    bound.  M is antisymmetric with zero trace, so no shift is needed.
    The scaled matrix shares M's index arrays; only its values are new.
    """
    import scipy.sparse as sp

    a = sp.csr_matrix((m.data * h, m.indices, m.indptr), shape=m.shape)
    norm = _one_norm(a)
    if norm == 0:
        return _TaylorPlan(a, 0, 1)
    m_star, s = min(
        ((k, math.ceil(norm / theta)) for k, theta in _THETA.items()),
        key=lambda ks: ks[0] * ks[1],
    )
    return _TaylorPlan(a, m_star, s)


def _taylor_action(plan: _TaylorPlan, x: np.ndarray) -> np.ndarray:
    """exp(a) x by the plan's truncated Taylor series (Al-Mohy & Higham, alg. 3.2).

    A sub-step stops early once two consecutive terms fall below 2**-53
    of the partial sum, in the infinity norm.
    """
    a, m_star, s = plan
    f = x
    for _ in range(s):
        c1 = np.max(np.abs(x))
        for j in range(m_star):
            x = (1.0 / (s * (j + 1))) * (a @ x)
            c2 = np.max(np.abs(x))
            f = f + x
            if c1 + c2 <= _TAYLOR_TOL * np.max(np.abs(f)):
                break
            c1 = c2
        x = f
    return f


def _budget_step(norm: float, budget: float = 0.1) -> float:
    return budget / norm if norm > 0 else 1.0


def default_step(gen: Generator, budget: float = 0.1) -> float:
    """Step size with dt * ||M||_inf = budget (1.0 if M vanishes): the step
    evolve takes when dt is None, which perfbench's tracer reads back."""
    return _budget_step(gen.infinity_norm(), budget)


def admit_grid(n_sites: int, t_max: float, dt: float, stride: int) -> int:
    """round(t_max / dt) steps, at least 1; SizeCapError past STEP_CAP or SAMPLE_BYTES_CAP."""
    if not t_max / dt <= STEP_CAP:
        raise SizeCapError(
            f"time grid capped at {STEP_CAP} steps, t_max/dt = {t_max / dt:.3g}"
        )
    n_steps = max(1, int(round(t_max / dt)))
    sample_bytes = (n_steps // stride + 2) * 4**n_sites * 8
    if sample_bytes > SAMPLE_BYTES_CAP:
        raise SizeCapError(
            f"recorded samples capped at {SAMPLE_BYTES_CAP} bytes, need {sample_bytes}"
        )
    return n_steps


def evolve(
    gen: Generator,
    x0: CorrelatorVector,
    t_max: float,
    dt: float | None = None,
    stride: int = 1,
    method: str = "rk4",
) -> Trajectory:
    """Propagate x(t) = exp(M t) x0, recording every `stride`-th step.

    method "rk4" is the fixed-step integrator, with M applied by
    gen.apply; "expm" applies the matrix exponential action from one
    recorded sample to the next with products on the CSR M, and conserves
    the sector norm to near machine precision.  The intervals between
    samples take at most two lengths (stride steps, and the remainder
    before the last sample); expm scales M and chooses its Taylor degree
    and scaling once per length, so each sample costs only its matvecs.
    t_max > 0 is rounded to a whole number of steps.  Raises SizeCapError
    before allocating when admit_grid refuses the grid, and before stepping
    when the matvecs (4 per rk4 step; m_star * s per expm interval, from
    its plan) times nnz(M) + MATVEC_OVERHEAD exceed WORK_CAP.
    """
    if x0.n_sites != gen.n_sites:
        raise ValueError("state and generator site counts differ")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    norm = gen.infinity_norm()
    if dt is None:
        dt = _budget_step(norm)
    if not dt > 0:
        raise ValueError("dt must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if method not in ("rk4", "expm"):
        raise ValueError(f"unknown method {method!r}")
    if dt * norm > 1.0:
        raise StepTooLargeError(f"step too large: dt*||M|| = {dt * norm:.3g} > 1")
    n_steps = admit_grid(gen.n_sites, t_max, dt, stride)
    # a stride past the last step records only t = 0 and the end
    step = min(stride, n_steps)
    counts = {step: n_steps // step}  # interval length -> how many
    if n_steps % step:
        counts[n_steps % step] = 1
    m = gen.matrix
    if method == "rk4":
        matvecs = 4 * n_steps
    else:
        plans = {n: _taylor_plan(m, n * dt) for n in counts}
        matvecs = sum(k * plans[n].m_star * plans[n].s for n, k in counts.items())
    work = matvecs * (m.nnz + MATVEC_OVERHEAD)
    if work > WORK_CAP:
        raise SizeCapError(
            f"run time capped at {WORK_CAP:.3g} nonzero-equivalents of matvec work, "
            f"need {work:.3g}"
        )
    rec = np.arange(0, n_steps + 1, step)
    if rec[-1] != n_steps:
        rec = np.append(rec, n_steps)
    times = rec * dt
    lengths = np.diff(rec)

    out = np.empty((rec.size, gen.dim))
    x = np.array(x0.values, dtype=float)
    out[0] = x
    if method == "rk4":
        for row, n in enumerate(lengths, start=1):
            for _ in range(n):
                x = _rk4_step(gen.apply, x, dt)
            out[row] = x
    else:
        for row, n in enumerate(lengths, start=1):
            x = _taylor_action(plans[n], x)
            out[row] = x
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
    or near any pole i*lambda of the generator, or when that check fails,
    and ValueError for a z that is not finite.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    admit_dense(gen.n_sites)
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
    if not residual <= 1e-10:
        raise PoleProximityError(
            f"resolvent residual {residual:.2e} exceeds 1e-10 at z = {z}: "
            "too little precision left to certify G(z)",
            nearest_pole=1j * nearest,
        )
    return g[np.ix_(rows, where)]


def eigenpair_residual(gen: Generator) -> float:
    """max over four seeded random probes C of ||M u - w|| / ||u||.

    u holds the Pauli coefficients of V C V^dagger and w those of
    V (i Omega . C) V^dagger, Omega_mn = E_n - E_m, from the eigensystem of
    H; C are complex Gaussian 2**N x 2**N matrices from default_rng(0), so
    reruns give the same value.  M u = w holds for every C exactly when
    every V|m><n|V^dagger is an eigenvector of M with eigenvalue
    i(E_n - E_m), and a random C misses a defect with probability zero
    (Freivalds 1977).  Near zero when the spectrum of H is the spectrum of M.
    """
    es = gen.eigensystem()
    v, e = es.vectors, es.energies
    parts = np.random.default_rng(0).standard_normal((2, 4, e.size, e.size))
    c = parts[0] + 1j * parts[1]
    omega = e[None, :] - e[:, None]
    vh = v.conj().T
    u = pauli_coefficients(v @ c @ vh)
    w = pauli_coefficients(v @ (1j * omega * c) @ vh)
    defect = _apply_real(gen.matrix, u) - w
    return float(np.max(np.linalg.norm(defect, axis=0) / np.linalg.norm(u, axis=0)))


@dataclass(frozen=True)
class SpectralReport:
    """Distinct oscillation frequencies of the correlator system.

    frequencies/multiplicities describe the positive eigenvalues of the
    Hermitian matrix i M, the level differences of H, merged within the
    degeneracy tolerance; kernel_dim counts (near-)zero eigenvalues of the
    nonidentity sector.  poles holds every eigenvalue of i M in that sector,
    and density, computed on first access, is their Lorentzian-broadened
    density sampled on omega."""

    frequencies: np.ndarray
    multiplicities: np.ndarray
    kernel_dim: int
    broadening: float
    omega: np.ndarray
    poles: np.ndarray = field(repr=False)

    @cached_property
    def density(self) -> np.ndarray:
        density = np.zeros_like(self.omega)
        for w in self.poles:
            density += self.broadening / np.pi / ((self.omega - w) ** 2 + self.broadening**2)
        return density


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
    typical pole separation; a given broadening must be a finite number > 0.
    """
    if broadening is not None and not (math.isfinite(broadening) and broadening > 0):
        raise ValueError("broadening must be a finite number > 0")
    admit_dense(gen.n_sites)
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
    return SpectralReport(
        frequencies, multiplicities, kernel_dim, float(broadening), omega_grid, lam
    )


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


def dyson_series(
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
