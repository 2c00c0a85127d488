"""Time evolution, resolvent and spectral analysis of the correlator system.

Two evolution backends cross-validate each other: a fixed-step classical
RK4 integrator, and exponential action exp(M h) x applied by scaled
truncated-Taylor sparse matvecs (Al-Mohy & Higham 2011).  The Taylor
degree and scaling depend only on hM, so they are chosen once per distinct
interval h between recorded samples, by the 1-norm rule scipy's
expm_multiply applies while ||hM||_1 <= 63.36; in that range the result is
bit-identical to calling expm_multiply per sample: each Taylor term is the
same product, scaling and sum as scipy's, made in place with one |.| pass,
and the partial sum's infinity norm is computed only when a running upper
bound on it lets scipy's stopping test pass, which then decides on the
exact norm, so every sub-step ends at scipy's term.  That identity is why
expm multiplies by the assembled CSR hM, while RK4 applies M through
Generator.apply: from five sites on, the Kronecker sum of the generators of
the two halves of the sites plus their sparse interaction, the same M
summed in another order (below, the CSR product, which is faster there).
From five sites on the backends therefore also check that split against
the CSR M.  Each plan takes its hM from Generator.scaled, which copies a
built M's values and otherwise assembles hM without building M; its
1-norm, like ||M||_inf, is summed from the arrays in scipy's order rather
than from a second matrix abs(hM), by scipy's compiled CSC matvec on the
CSR arrays, and nothing here constructs a sparse matrix.

M is the Pauli-basis form of the commutator -i[H, .], so its eigenvalues
are i(E_n - E_m) over all pairs of levels of H, with eigenvectors the Pauli
coefficients of V|m><n|V^dagger.  The spectrum and the resolvent
G(z) = (z I - M)^{-1} are therefore built from one 2**N x 2**N
diagonalization of H instead of a dense 4**N eigensolve or solve.  Neither
answer is trusted on that route alone: every resolvent column is certified
by the residual of (z I - M) G with sparse matvecs on the hierarchy M, and
eigenpair_residual certifies the eigendecomposition the spectrum rests on
by one sparse product on seeded random probes (Freivalds' check).
dyson_series expands G around M_0, the generator of H without the
couplings across a split of the sites into two systems, and takes its G0
from resolvent on M_0: one diagonalization of H_0 and the same residual
certificate, so no dense solve of M or of a sector block is made here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .density import CorrelatorVector, pauli_coefficients
from .errors import DivergentSeriesError, PoleProximityError, StepTooLargeError
from .hierarchy import ROW_CHUNK, CoupledSplit, Generator, _coupling_split, _plan_size
from .hierarchy import admit, build_generator, largest_coefficient, norm_bound
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

    def expectation(self, obs: Observable) -> np.ndarray:
        """Time series of an observable; complex for ladder combinations."""
        if obs.n_sites != self.n_sites:
            raise ValueError("observable and trajectory site counts differ")
        return obs.expectation(self.values.T)

    def sector_norms(self) -> np.ndarray:
        """sqrt(sum of squared nonidentity slots) at each time; conserved."""
        return np.linalg.norm(self.values[:, 1:], axis=1)


def _rk4_step(apply, x, dt):
    k1 = apply(x)
    k2 = apply(x + 0.5 * dt * k1)
    k3 = apply(x + 0.5 * dt * k2)
    k4 = apply(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_TAYLOR_TOL = 2.0**-53


class _TaylorPlan(NamedTuple):
    """exp(a) x as s sub-steps of at most m_star Taylor terms each."""

    a: sp.csr_matrix
    m_star: int
    s: int


def _one_norm(a: sp.csr_matrix) -> float:
    """max_c sum_r |a_rc|, each column summed in entry order as scipy sums abs(a).

    The rows are read ROW_CHUNK at a time, so no copy of a is made, and
    their |entries| go through scipy's compiled CSC matvec with a vector of
    ones: a's CSR arrays are those of its transpose in CSC, whose product
    with ones adds each entry to its column's sum, one after another.
    """
    # imported here: scipy loads with the first assembly of a matrix, not before
    from scipy.sparse._sparsetools import csc_matvec

    sums = np.zeros(a.shape[1])
    for r in range(0, a.shape[0], ROW_CHUNK):
        ptr = a.indptr[r : r + ROW_CHUNK + 1]
        rows, lo, hi = len(ptr) - 1, ptr[0], ptr[-1]
        absolute = np.abs(a.data[lo:hi])
        csc_matvec(a.shape[1], rows, ptr - lo, a.indices[lo:hi], absolute, np.ones(rows), sums)
    return float(sums.max())


def _taylor_plan(gen: Generator, h: float) -> _TaylorPlan:
    """gen.scaled(h) and _plan_size(||hM||_1); M is antisymmetric with zero
    trace, so no shift is needed."""
    a = gen.scaled(h)
    return _TaylorPlan(a, *_plan_size(_one_norm(a)))


def _taylor_action(plan: _TaylorPlan, x: np.ndarray) -> np.ndarray:
    """exp(a) x by the plan's truncated Taylor series (Al-Mohy & Higham, alg. 3.2).

    A sub-step stops early once two consecutive terms fall below 2**-53
    of the partial sum, in the infinity norm: c1 + c2 <= 2**-53 ||f||_inf,
    the test scipy's expm_multiply makes after every term.  Each term is
    one product a @ x, scaled and added to f in place, with the same
    operands in the same order as scipy, and one |.| pass for c2 = ||x||_inf.

    ||f||_inf is computed, with a second |.| pass, only when a running
    bound U (`bound`) lets the test pass, c1 + c2 <= 2**-53 U; the term is
    accepted only by the exact test on the computed f, and U is then reset
    to ||f||_inf.  U >= ||f||_inf whenever ||f||_inf is not NaN: U starts
    each sub-step at fl(c1 (1 + 2**-50)) >= c1 = ||f||_inf, where f is x,
    and after a term every entry of the new f is fl(f_i + x_i), with
    |fl(f_i + x_i)| <= fl(|f_i| + |x_i|) <= fl(U + c2)
    <= fl(fl(U + c2) (1 + 2**-50)), the new U, because rounding is
    monotone (the factor 1 + 2**-50 is slack on top).  U turns NaN only
    through a NaN c1, c2 or ||f||_inf, each of which leaves a NaN in f for
    the rest of the sub-step.  So whenever scipy's test passes,
    c1 + c2 <= 2**-53 ||f||_inf <= 2**-53 U (scaling by 2**-53 is monotone
    as well), the bound passes too and the exact test is made: every
    sub-step stops at scipy's term, for NaN and inf entries too, and every
    output bit is scipy's.
    """
    a, m_star, s = plan
    f = np.array(x, dtype=float)
    buf = np.empty_like(f)
    slack = 1.0 + 2.0**-50
    for _ in range(s):
        x = f
        c1 = np.abs(f, out=buf).max()
        bound = c1 * slack
        for j in range(m_star):
            x = a @ x
            x *= 1.0 / (s * (j + 1))
            c2 = np.abs(x, out=buf).max()
            f += x
            bound = (bound + c2) * slack
            if c1 + c2 <= _TAYLOR_TOL * bound:
                bound = np.abs(f, out=buf).max()
                if c1 + c2 <= _TAYLOR_TOL * bound:
                    break
            c1 = c2
    return f


def _is_bool(value) -> bool:
    """True for a Python or numpy bool, which no real-valued argument takes."""
    return isinstance(value, (bool, np.bool_))


def default_step(gen: Generator) -> float:
    """Step size with dt * ||M||_inf = 0.1 (1.0 if M vanishes): the step
    evolve takes when dt is None, which perfbench's tracer reads back."""
    norm = gen.infinity_norm()
    return 0.1 / norm if norm > 0 else 1.0


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
    recorded sample to the next with products on the CSR hM, and conserves
    the sector norm to near machine precision.  The intervals between
    samples take at most two lengths (stride steps, and the remainder
    before the last sample); expm scales M and chooses its Taylor degree
    and scaling once per length, so each sample costs only its matvecs;
    each hM comes from Generator.scaled, so the plans never build M.
    t_max > 0 is rounded to a whole number of steps; a t_max or dt that is
    not positive and finite, or a bool, Python's or numpy's, raises
    ValueError.  A step with dt * ||M||_inf > 1 raises StepTooLargeError: at
    once when dt times H's largest coefficient, a lower bound on ||M||_inf,
    is past 1, and without reading M when dt * norm_bound(h) <= 1 admits it;
    only between the two bounds, or with dt None (dt * ||M||_inf = 0.1), is
    ||M||_inf computed from M.  Then hierarchy.admit, the CLI's check before
    any task, raises SizeCapError before any sample or Taylor plan is allocated.
    """
    if x0.n_sites != gen.n_sites:
        raise ValueError("state and generator site counts differ")
    if _is_bool(t_max) or not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be a positive number and finite, got {t_max!r}")
    if dt is None:
        dt = default_step(gen)
    if _is_bool(dt) or not 0 < dt < math.inf:
        raise ValueError(f"dt must be a positive number and finite, got {dt!r}")
    if isinstance(stride, bool) or not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError("stride must be an integer >= 1")
    if method not in ("rk4", "expm"):
        raise ValueError(f"unknown method {method!r}")
    h = gen.hamiltonian
    # largest_coefficient(h) <= ||M||_inf <= norm_bound(h), and rounding is
    # monotone, so neither shortcut decides otherwise than dt * ||M||_inf
    low = dt * largest_coefficient(h)
    if low > 1.0:
        raise StepTooLargeError(f"step too large: dt*||M|| >= {low:.3g} > 1")
    if not dt * norm_bound(h) <= 1.0:
        norm = gen.infinity_norm()
        if dt * norm > 1.0:
            raise StepTooLargeError(f"step too large: dt*||M|| = {dt * norm:.3g} > 1")
    counts = admit(h.n_sites, ["evolve"], h, (t_max, dt, stride), method)
    step, n_steps = max(counts), sum(n * k for n, k in counts.items())
    rec = np.append(np.arange(0, n_steps, step), n_steps)
    times = rec * dt
    lengths = np.diff(rec)

    # the plans are made before the samples are allocated: made after them,
    # a 6-site expm run raised the process's peak RSS by 3 MB more
    if method == "expm":
        plans = {n: _taylor_plan(gen, n * dt) for n in counts}
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
    and ValueError for a z that is not finite or a `codes` that is empty or
    not of integer dtype.
    """
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    rows = np.arange(gen.dim) if codes is None else np.asarray(codes)
    if not rows.size:
        raise ValueError("codes must be nonempty")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {rows.dtype}")
    admit(gen.n_sites, ["resolvent"])
    lam = np.concatenate(([0.0], _generator_eigenvalues(gen)))
    dist = np.abs(z - 1j * lam)
    nearest = lam[np.argmin(dist)]
    if dist.min() <= 1e-10:
        raise PoleProximityError(
            f"z = {z} is within {dist.min():.2e} of the pole {1j * nearest}",
            nearest_pole=1j * nearest,
        )
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
    return float(np.max(_column_norms(defect) / _column_norms(u)))


def _column_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of a 2-D array.

    Each column is summed as one contiguous row of a C-ordered transpose,
    in numpy's fixed summation order, so the bits do not depend on the
    memory order of `a`; those of np.linalg.norm(a, axis=0) do.
    """
    t = np.ascontiguousarray(a.T)
    return np.sqrt(np.sum(t.real**2 + t.imag**2, axis=1))


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


def spectrum(gen: Generator, broadening: float | None = None) -> SpectralReport:
    """Eigenfrequency report of the generator.

    The eigenvalues of i M are the 4**N - 1 level differences E_n - E_m of
    H (one diagonal zero dropped for the identity slot), from the cached
    eigensystem of H; eigenpair_residual certifies them against M.
    Frequencies within 1e-9 * max|lambda| of each other are reported once
    with their multiplicity, and those below it count towards kernel_dim.
    The default broadening is 10x the mean spacing of the detected distinct
    frequencies, kept deliberately coarser than the typical pole
    separation; a given broadening must be a finite number > 0, not a
    bool.  The density is sampled on 513 points from 0 to 1.2 max|lambda|
    (to 1 if M vanishes).
    """
    if broadening is not None and (
        _is_bool(broadening) or not (math.isfinite(broadening) and broadening > 0)
    ):
        raise ValueError("broadening must be a finite number > 0")
    admit(gen.n_sites, ["spectrum"])
    lam = _generator_eigenvalues(gen)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    tol = 1e-9 * max(scale, 1e-300)
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
    omega = np.linspace(0.0, 1.2 * scale if scale > 0 else 1.0, 513)
    return SpectralReport(frequencies, multiplicities, kernel_dim, float(broadening), omega, lam)


def dyson_series(gen: Generator, split: CoupledSplit, z: complex, order: int) -> np.ndarray:
    """Perturbative resolvent G0 sum_{n<=order} (V G0)^n in sector layout.

    M = M_0 + V splits the generator at split.system1 (hierarchy's
    _coupling_split): M_0 of H without the couplings across the split, V of
    those couplings alone.  G0 is resolvent(M_0, z) on the codes of
    split.order, which is block diagonal in (X1, Y, X2) because M_0 keeps
    every sector to itself, and V is multiplied as its sparse slice in the
    same order.  The result approximates resolvent(gen, z) on split.order.
    Raises DivergentSeriesError when ||V G0|| >= 1; ValueError for an order
    that is not an integer >= 0, a z that is not finite, or a split of
    another site count; and PoleProximityError, from resolvent, when z is
    at or near a pole of M_0 or its residual check fails.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError("order must be an integer >= 0")
    if split.n_sites != gen.n_sites:
        raise ValueError("split and generator site counts differ")
    h_0, h_v = _coupling_split(gen.hamiltonian, split.system1)
    codes = split.order
    g0 = resolvent(build_generator(h_0), z, codes)
    t = build_generator(h_v).matrix[codes][:, codes] @ g0
    growth = float(np.linalg.norm(t, 2))
    if growth >= 1.0:
        raise DivergentSeriesError(
            f"series divergent at this z: ||V G0|| = {growth:.3g} >= 1"
        )
    g = g0
    for _ in range(order):
        g = g0 + g @ t
    return g
