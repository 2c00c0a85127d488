"""The linear generator of the correlator hierarchy.

For a pairwise spin Hamiltonian the full table X of Pauli-string expectations
obeys the closed linear system dX/dt = M X.  Reading the equation of motion
for a target string with support A and axes {mu_i}, row entries come from

  (a) local fields:   eps(mu_i, a, n) h_i^a,       same support, mu_i -> n at i;
  (b) intra-subset:   eps(mu_i, a, n) V_ij^{a mu_j},   support A without j;
  (c) growth:         eps(mu_i, a, n) V_il^{a l'},     support A plus l,

so every entry of M is +-h or +-V and the matrix is real, sparse and
antisymmetric (norm conservation of the nonidentity sector, equivalently
purity conservation).  Row and column 0 stay empty: the identity slot is
inert and pinned to 1.

The rules depend only on the base-4 digits of the row code, so the
assembly applies (a), (b) and (c) as digit masks over all 4**N codes at
once; each term reaches its column by a constant code shift.  The
row-by-row reading of the rules is kept in the test suite as the reference
the assembly must match bit for bit.  Every nonzero field component or
coupling entry adds 4**N / 2 entries, so the size of M is known before it
is built (generator_nnz), and build_generator first refuses an M past
BYTES_CAP (admit, every layer's one size check).  It assembles nothing
itself: the Generator assembles its CSR M on the first access to matrix,
and Generator.scaled(h) assembles hM with scale h unless M exists, so a
run that only needs M x through the half split, or exp(hM) x, never holds M.
The rows are built in chunks of at most ROW_CHUNK = 256 codes that share
their top digits: a rule that tests only low digits selects the same low
codes in every chunk, and one that tests a top digit selects a whole chunk
or none of it.  So each chunk is one vector test over the blocks and a few
np.repeat calls, and scipy's COO-to-CSR kernel sorts it straight into its
slices of the CSR arrays.  Codes and indices are int32 throughout, and a
chunk's temporaries stay in cache and are all that exists next to the
finished CSR.  The assembly and scaled, the places here that construct a
sparse matrix, import scipy.sparse themselves, so a process that never
assembles M (a decompose run, a config refused at load) never loads scipy.

Split the sites into system 1 and the rest, system 2, and H into H_0, H
without the couplings across the split, and H_V, those couplings alone.
Their generators M_0 and V sum to M and share no entry, and _coupling_split
returns the two Hamiltonians.  A field or a coupling inside one system
changes only that system's digits, by an entry that depends only on them,
so M_0 is the Kronecker sum of M_1 and M_2, the generators of H restricted
to each system.  half_split takes the low N // 2 sites as system 1, so that
M = kron(I, M_1) + kron(M_2, I) + V, and Generator caches it: from
SPLIT_MIN_SITES sites on, apply computes M x from it as two small dense
products and a sparse one with about half of M's nonzeros, faster than the
CSR product, so rk4 needs the CSR M only for the exact ||M||_inf, which
evolve reads only when dt is None or norm_bound(h) cannot settle its step
check.  The coupled-system sector blocks are slices in (X1, Y, X2) order:
of M for block_structure, and of M_0 and V for decompose_blocks.  M_0 keeps every
sector to itself, so the X1 <-> X2 blocks of M are those of V, which are
zero: a coupling across the split adds or removes one of its two sites and
keeps the other in the support, so no support passes between the systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .combinatorics import as_int, bell_number, bit_indices, check_mask
from .density import DensityMatrix, partial_trace_array
from .errors import SizeCapError
from .hamiltonian import SpinHamiltonian, restrict
from .oracle import EigenSystem, build_hamiltonian_matrix, coupling_terms, eigensystem
from .pauli import _EPS_TERMS, sum_matrix, support_mask

if TYPE_CHECKING:
    import scipy.sparse as sp


# Generator.apply uses the half split from this many sites on.  With one
# BLAS thread on x86-64 a product took 44/228 us through the split against
# 60/330 us on the CSR M at 5/6 sites, but 10/17 us against 6/13 us at 3/4
# sites, where the split's three products cost more than M's nonzeros.
SPLIT_MIN_SITES = 5

# _assemble fills M in chunks of at most this many rows, so that only one
# chunk's temporaries, which stay in cache, exist next to the CSR M: at 7
# sites the build takes 10 ms with a traced peak of 22 MB for a 20.7 MB M,
# against 15 ms and 32 MB in chunks of 4**6 rows, 21 ms and 58 MB in one
ROW_CHUNK = 4**4

# admit refuses (exit 4) a run past any of these caps.  Each estimate of
# bytes, of M with what an evolution builds next to it and of the recorded
# samples, is compared with BYTES_CAP on its own.  Time grids are refused
# beyond STEP_CAP steps, past which k * dt is no longer exact.
BYTES_CAP = 2 * 1024**3
STEP_CAP = 2**53
# runs are refused beyond WORK_CAP nonzero-equivalents of matvec work, each
# matvec costing nnz(M) + MATVEC_OVERHEAD: on a 2-vCPU x86-64 guest a CSR
# matvec took about 1 ns per nonzero and rk4/Taylor steps 8-16 us per
# matvec at N <= 2, so the cap is about 20 minutes of stepping
MATVEC_OVERHEAD = 10_000
WORK_CAP = 1.2e12
# a state of N sites is refused when B_N * 4**N exceeds this.  That bounds
# cumulant_reconstruct's work from above: it enumerates the B_N partitions
# and sums each first block's tails on the other sites, B_{N-1} tails of
# 4**(N-1) entries for the block {0} alone.  A `corrdyn run` decompose of a
# W state took 0.24 s at 8 sites and 2.3 s at 9 (5.5e9) on one x86-64 vCPU
# (in-process medians of 10 and 5 runs; 0.37 s and 2.9 s with Kronecker
# products and qubit permutations in place of broadcast products, 1.17 s
# and 20.3 s summing all B_N partitions at full size).  The cap admits
# N <= 9: 10 sites need 1.2e11, and their block {0} alone would sum
# B_9 = 21,147 tails of 4**9 entries.
DECOMPOSE_WORK_CAP = 1e11
# work on dense arrays over more than this many correlator slots: the
# spectrum, the resolvent and the sector blocks
DENSE_DIM_CAP = 4**6

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


class HalfSplit(NamedTuple):
    """M = kron(I, m_a) + kron(m_b, I) + v over the low and high half of the sites."""

    m_a: np.ndarray
    m_b: np.ndarray
    v: sp.csr_matrix

    def apply(self, x: np.ndarray) -> np.ndarray:
        xm = x.reshape(len(self.m_b), len(self.m_a))
        y = self.m_b @ xm
        y += xm @ self.m_a.T
        y = y.ravel()
        y += self.v @ x
        return y


def _coupling_split(h: SpinHamiltonian, system1: int) -> tuple[SpinHamiltonian, SpinHamiltonian]:
    """H_0, H without its couplings between the sites in system1 and the
    rest, and H_V, those couplings alone without fields: H = H_0 + H_V."""
    n = h.n_sites
    inner, cross = {}, {}
    for (i, j), v in h.couplings.items():
        (cross if (system1 >> i ^ system1 >> j) & 1 else inner)[i, j] = v
    return SpinHamiltonian(n, h.fields, inner), SpinHamiltonian(n, np.zeros((n, 3)), cross)


def half_split(h: SpinHamiltonian) -> HalfSplit:
    """Dense M_A and M_B of H restricted to the low n_sites // 2 sites (A,
    the low digits) and to the rest, and the CSR V of the couplings between them."""
    system1 = (1 << h.n_sites // 2) - 1
    m_a = build_generator(restrict(h, system1)).matrix.toarray()
    m_b = build_generator(restrict(h, system1 ^ ((1 << h.n_sites) - 1))).matrix.toarray()
    return HalfSplit(m_a, m_b, build_generator(_coupling_split(h, system1)[1]).matrix)


class Generator:
    """Sparse generator matrix over the 4**N correlator slots.

    It keeps the Hamiltonian it was built from: M is the Pauli-basis form of
    -i[H, .], so its spectral data come from the eigensystem of H, which is
    computed once on first use and cached.  The CSR M is the one passed in,
    or, given None, assembled from the Hamiltonian on the first access to
    matrix and cached the same way.  The split of M into its two halves'
    Kronecker sum and their interaction, which apply uses from
    SPLIT_MIN_SITES sites on, is built from the Hamiltonian's terms on the
    first such apply and cached as well.
    """

    def __init__(self, hamiltonian: SpinHamiltonian, matrix: sp.csr_matrix | None = None):
        self.hamiltonian = hamiltonian
        self._matrix = matrix
        self._eigensystem: EigenSystem | None = None
        self._split: HalfSplit | None = None

    @property
    def n_sites(self) -> int:
        return self.hamiltonian.n_sites

    @property
    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = _assemble(self.hamiltonian, 1.0)
        return self._matrix

    def scaled(self, h: float) -> sp.csr_matrix:
        """hM: M's values times h on M's index arrays if M exists, else the
        same arrays bit for bit assembled with scale h, without building M."""
        m = self._matrix
        if m is None:
            return _assemble(self.hamiltonian, h)
        import scipy.sparse as sp

        return sp.csr_matrix((m.data * h, m.indices, m.indptr), shape=m.shape)

    @property
    def dim(self) -> int:
        return 4**self.n_sites

    def eigensystem(self) -> EigenSystem:
        if self._eigensystem is None:
            self._eigensystem = eigensystem(self.hamiltonian)
        return self._eigensystem

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M x for a real vector x.

        From SPLIT_MIN_SITES sites on through the half split of M, built
        from the Hamiltonian and cached, equal to matrix @ x up to rounding
        (the sums run in another order); below, matrix @ x itself.
        """
        if self.n_sites < SPLIT_MIN_SITES:
            return self.matrix @ x
        if self._split is None:
            self._split = half_split(self.hamiltonian)
        return self._split.apply(x)

    def infinity_norm(self) -> float:
        """max_r sum_c |M_rc|, the value of scipy's abs(M).sum(axis=1).max().

        The rows are read ROW_CHUNK at a time, so no copy of M is made, and
        summed by np.add.reduceat, in numpy's pairwise order, not one entry
        after another, as scipy 1.17 sums CSR rows; the tests check the max.
        """
        m = self.matrix
        best = 0.0
        for r in range(0, m.shape[0], ROW_CHUNK):
            ptr = m.indptr[r : r + ROW_CHUNK + 1]
            starts = ptr[:-1][np.diff(ptr) > 0] - ptr[0]  # the nonempty rows
            if starts.size:
                sums = np.add.reduceat(np.abs(m.data[ptr[0] : ptr[-1]]), starts)
                best = max(best, float(sums.max()))
        return best


def antisymmetry_defect(gen: Generator) -> float:
    """max |M + M^T|, zero for an exactly antisymmetric generator."""
    d = (gen.matrix + gen.matrix.T).tocoo()
    return float(np.max(np.abs(d.data))) if d.nnz else 0.0


def generator_nnz(h: SpinHamiltonian) -> int:
    """Nonzeros of M in closed form, without building it.

    A nonzero field component h_i^a enters rule (a) twice (the two axes
    mu != a), each time on the 4**(N-1) rows with digit mu at i.  A nonzero
    coupling entry enters (b) and (c) from both of its sites, eight times in
    all, each on 4**(N-2) rows.  Either way one term adds 4**N / 2 entries.
    """
    terms = np.count_nonzero(h.fields)
    terms += sum(np.count_nonzero(v) for v in h.couplings.values())
    # a Python int: numpy's int64 overflows on 4**N from N = 32 on
    return int(terms) * 4**h.n_sites // 2


def norm_bound(h: SpinHamiltonian) -> float:
    """(sum |h_i^a| + sum |V_ij^ab|) (1 + 1e-12) >= ||M||_inf = ||M||_1: a row
    of M holds each field component and coupling entry at most once, and the
    factor covers the rounding of either sum."""
    terms = np.abs(h.fields).sum() + sum(np.abs(v).sum() for v in h.couplings.values())
    return float(terms) * (1 + 1e-12)


def largest_coefficient(h: SpinHamiltonian) -> float:
    """max |h_i^a|, |V_ij^ab| <= ||M||_inf: each nonzero one is an entry of M,
    and a rounded sum of nonnegative terms is at least its largest term."""
    return float(max([np.abs(h.fields).max()] + [np.abs(v).max() for v in h.couplings.values()]))


def generator_bytes(h: SpinHamiltonian) -> int:
    """Bytes of the CSR M: float64 data, int32 column indices and row pointers."""
    return 12 * generator_nnz(h) + 4 * (4**h.n_sites + 1)


def _plan_size(norm: float) -> tuple[int, int]:
    """(m_star, s) minimising m_star * s, s = ceil(||hM||_1 / theta_m).

    scipy's expm_multiply applies this rule while ||hM||_1 <= 63.36
    (condition (3.13) of Al-Mohy & Higham); above, it costs more matvecs
    than scipy's power-norm estimates, for the same error bound.  m_star * s
    never decreases as the norm grows, so a bound on the norm bounds it.
    """
    if norm == 0:
        return 0, 1
    return min(
        ((k, math.ceil(norm / theta)) for k, theta in _THETA.items()),
        key=lambda ks: ks[0] * ks[1],
    )


def _evolution_bytes(h: SpinHamiltonian, method: str, lengths: int) -> int:
    """Bytes of M and of what evolving by `method` adds: for expm, per interval
    length, 8 per nonzero and 4 per row, a Taylor plan's copy of a built M's
    values or else a whole CSR (one of which M's own count covers); for rk4
    from SPLIT_MIN_SITES sites on, apply's half split, V and dense M_A, M_B."""
    need = generator_bytes(h)
    if method == "expm":
        need += lengths * (8 * generator_nnz(h) + 4 * (4**h.n_sites + 1))
    if method == "rk4" and h.n_sites >= SPLIT_MIN_SITES:
        n_a = h.n_sites // 2  # as in half_split
        need += generator_bytes(_coupling_split(h, (1 << n_a) - 1)[1])
        need += 8 * (16**n_a + 16 ** (h.n_sites - n_a))
    return need


def admit(n_sites: int, tasks, h: SpinHamiltonian | None = None, grid=None, method="rk4"):
    """Raise SizeCapError at the first estimate for `tasks` (the CLI's five,
    "generator" for build_generator, "dense" for split_sectors) past its cap,
    from N, H and the grid (t_max, dt, stride) alone; else return the grid's
    {interval length: count}, or None when no task steps along it.

    Each estimate is formed once those before it pass: for "evolve"'s method,
    then expm for "validate", steps past STEP_CAP, samples and
    _evolution_bytes past BYTES_CAP, then matvecs times generator_nnz(h) +
    MATVEC_OVERHEAD past WORK_CAP (rk4 4 a step; expm per interval of n steps
    the m_star * s of _plan_size(n * dt * norm_bound(h)), at least its plan's);
    then B_N * 4**N past DECOMPOSE_WORK_CAP, 4**N past DENSE_DIM_CAP, M alone
    past BYTES_CAP.  A numpy n_sites becomes an int, so 4**N cannot wrap.
    """
    n_sites = as_int(n_sites, "n_sites")

    def check(need, cap, message):
        if not need <= cap:
            raise SizeCapError(message)

    counts = None
    for m in dict.fromkeys(m for t, m in (("evolve", method), ("validate", "expm")) if t in tasks):
        t_max, dt, stride = grid
        ratio = t_max / dt
        check(ratio, STEP_CAP, f"time grid capped at {STEP_CAP} steps, t_max/dt = {ratio:.3g}")
        n_steps = max(1, int(round(ratio)))
        need = (n_steps // stride + 2) * 4**n_sites * 8
        check(need, BYTES_CAP, f"recorded samples capped at {BYTES_CAP} bytes, need {need}")
        # a stride past the last step records only t = 0 and the end; the
        # steps left after the last whole stride, if any, make one interval
        step = min(stride, n_steps)
        counts = {n: k for n, k in ((step, n_steps // step), (n_steps % step, 1)) if n}
        need = _evolution_bytes(h, m, len(counts))
        check(need, BYTES_CAP, f"generator capped at {BYTES_CAP} bytes, need {need}")
        matvecs = 4 * n_steps  # rk4's
        if m == "expm":
            bound = norm_bound(h)
            try:
                matvecs = sum(k * math.prod(_plan_size(n * dt * bound)) for n, k in counts.items())
            except OverflowError:  # an infinite norm: no plan ends
                matvecs = math.inf
        work = matvecs * (generator_nnz(h) + MATVEC_OVERHEAD)
        check(work, WORK_CAP, f"run time capped at {WORK_CAP:.3g} nonzero-equivalents "
              f"of matvec work, need {work:.3g}")
    if "decompose" in tasks:
        need = bell_number(n_sites) * 4**n_sites
        check(need, DECOMPOSE_WORK_CAP, f"decomposition of {n_sites} sites capped at "
              f"{DECOMPOSE_WORK_CAP:.3g} partition-entries (B_N * 4**N), need {need:.3g}")
    if {"spectrum", "resolvent", "validate", "dense"} & set(tasks):
        check(4**n_sites, DENSE_DIM_CAP, f"spectral tasks capped at dimension "
              f"{DENSE_DIM_CAP}, need {4**n_sites}")
    if "generator" in tasks:
        need = generator_bytes(h)
        check(need, BYTES_CAP, f"generator capped at {BYTES_CAP} bytes, need {need}")
    return counts


def build_generator(h: SpinHamiltonian) -> Generator:
    """The generator of H, whose CSR M is assembled on first use.

    Raises SizeCapError first when admit refuses M's bytes; it allocates
    nothing 4**N-sized itself.
    """
    admit(h.n_sites, ["generator"], h)
    return Generator(h)


def _assemble(h: SpinHamiltonian, scale: float) -> sp.csr_matrix:
    """scale * M, applying rules (a)-(c) to all 4**N row codes at once.

    Each rule picks its rows by digit masks on the row code and reaches its
    column by one constant code shift, so every (site, axis, partner,
    epsilon term) adds a whole block of entries, each s * (scale * c) for
    the term's sign s and coefficient c.  A block is left out when c is
    zero, not scale * c, so the arrays are those of scale times M's values
    on M's index arrays bit for bit, also where scale * c underflows to 0.
    The rows are filled in chunks of ROW_CHUNK, split on the top digits: a
    rule selects the same low codes in every chunk whose top digits it
    accepts.  scipy's coo_tocsr kernel, the one coo_matrix.tocsr calls,
    without its checks and copies, writes each chunk's COO straight into its
    slices of the CSR arrays, allocated once from generator_nnz.  It is
    private to scipy: tests/test_generator_reference.py pins its output.
    """
    import scipy.sparse as sp
    from scipy.sparse._sparsetools import coo_tocsr

    n = h.n_sites
    dim = 4**n
    low = min(n, (ROW_CHUNK.bit_length() - 1) // 2)  # sites inside a chunk
    step = 4**low
    codes = np.arange(step, dtype=np.int32)
    # digit[i][d] = (low codes, chunk-index mask, value): the rows whose digit
    # at site i is d are those low codes in the chunks k with k & mask == value
    everywhere = np.ones(step, dtype=bool)
    digit = [
        [((codes >> 2 * i) & 3 == d, 0, 0) for d in range(4)]
        if i < low
        else [(everywhere, 3 << 2 * (i - low), d << 2 * (i - low)) for d in range(4)]
        for i in range(n)
    ]
    # (column shift, low codes, coeff, chunk-index mask, value)
    blocks: list[tuple[int, np.ndarray, float, int, int]] = []

    def add(sel: tuple, shift: int, s: float, c: float) -> None:
        if c:
            blocks.append((shift, sel[0], s * (scale * c), sel[1], sel[2]))

    def both(a: tuple, b: tuple) -> tuple:
        """The rows that pass the digit tests a and b."""
        return codes[a[0] & b[0]], a[1] | b[1], a[2] | b[2]

    for i in range(n):
        for mu in (1, 2, 3):
            on = digit[i][mu]
            terms = _EPS_TERMS[mu]
            sel = (codes[on[0]], on[1], on[2])  # (a) field: mu -> nu at i
            for alpha, nu, s in terms:
                add(sel, (nu - mu) << 2 * i, s, h.fields[i, alpha - 1])
            for j in h.partners(i):
                v = h.coupling(i, j)
                for muj in (1, 2, 3):  # (b) intra-subset: j leaves the support
                    sel = both(on, digit[j][muj])
                    for alpha, nu, s in terms:
                        shift = ((nu - mu) << 2 * i) - (muj << 2 * j)
                        add(sel, shift, s, v[alpha - 1, muj - 1])
                sel = both(on, digit[j][0])  # (c) growth: j joins as lam
                for alpha, nu, s in terms:
                    for lam in (1, 2, 3):
                        shift = ((nu - mu) << 2 * i) + (lam << 2 * j)
                        add(sel, shift, s, v[alpha - 1, lam - 1])

    # blocks in ascending shift list each row's columns in ascending order,
    # which the counting sort into CSR keeps: M comes out canonical
    blocks.sort(key=lambda b: b[0])
    shift = np.array([b[0] for b in blocks], dtype=np.int32)
    value = np.array([b[2] for b in blocks], dtype=float)
    k_mask = np.array([b[3] for b in blocks], dtype=int)
    k_value = np.array([b[4] for b in blocks], dtype=int)
    count = np.array([b[1].size for b in blocks], dtype=int)
    lows = np.concatenate([np.empty(0, dtype=np.int32)] + [b[1] for b in blocks])

    nnz = generator_nnz(h)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    end = 0
    for k in range(dim // step):
        hit = k & k_mask == k_value  # the blocks with rows in chunk k
        sizes = count[hit]
        rows = lows[np.repeat(hit, count)]
        cols = rows + np.repeat(shift[hit] + k * step, sizes)
        start, end = end, end + rows.size
        if end > nnz:  # the kernel would write past the ends of indices and data
            raise RuntimeError("chunks disagree with generator_nnz")
        ptr = indptr[k * step : (k + 1) * step + 1]
        coo_tocsr(
            step, dim, rows.size, rows, cols, np.repeat(value[hit], sizes),
            ptr, indices[start:end], data[start:end],
        )
        ptr += start  # ptr[0] was the previous chunk's end, which the kernel zeroed
    assert end == nnz, "chunks disagree with generator_nnz"
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _pair_operator(h: SpinHamiltonian, sites: list[int], j: int, ell: int) -> np.ndarray:
    """(1/2) V_{j ell}^{mu nu} sigma_j^mu sigma_ell^nu on the listed sites."""
    v = h.coupling(j, ell)
    terms = [] if v is None else coupling_terms(v, sites.index(j), sites.index(ell))
    return sum_matrix(len(sites), terms)


def reduced_eom_residual(
    h: SpinHamiltonian, times, rhos: list[DensityMatrix], subset: int
) -> float:
    """Centered-difference defect of the reduced equation of motion on a subset.

    Checks i d/dt rbar_A = [Hbar_A, rbar_A] + sum_{l not in A} tr_l
    sum_{j in A} [Vhat_jl, rbar_{A+l}] along a uniformly sampled exact
    trajectory; the result is O(dt^2) purely from the finite difference.
    Needs a 1-d grid of at least 3 finite times, one state of H's sites per
    time, with a nonzero step that every step matches to 1e-12 of it and the
    rounding of the times.
    """
    subset = check_mask(subset)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("trajectory times must be a 1-d sequence")
    if len(times) < 3:
        raise ValueError("need at least 3 trajectory points")
    if len(rhos) != len(times):
        raise ValueError(f"{len(rhos)} states for {len(times)} times")
    if any(r.n_sites != h.n_sites for r in rhos):
        raise ValueError("state and Hamiltonian site counts differ")
    if not np.isfinite(times).all():
        raise ValueError("trajectory times must be finite")
    steps = np.diff(times)
    dt = steps[0]
    # relative to the step, plus what rounding each time moves a step by,
    # so np.arange(k) * dt passes and sub-1e-12 uneven steps do not
    tol = 1e-12 * abs(dt) + 4 * np.spacing(np.max(np.abs(times)))
    if not (dt and np.max(np.abs(steps - dt)) <= tol):
        raise ValueError("trajectory must be uniformly sampled with a nonzero step")
    if subset == 0 or subset >> h.n_sites:
        raise ValueError("bad subset")

    n = h.n_sites
    a_sites = bit_indices(subset)
    h_eff = build_hamiltonian_matrix(restrict(h, subset))

    outside = [
        ell
        for ell in range(n)
        if not subset >> ell & 1 and any(j in h.partners(ell) for j in a_sites)
    ]
    couplers = {}
    for ell in outside:
        big = subset | (1 << ell)
        sites = bit_indices(big)
        w = np.zeros((2 ** len(sites),) * 2, dtype=complex)
        for j in a_sites:
            w += _pair_operator(h, sites, j, ell)
        keep = sum(1 << sites.index(s) for s in a_sites)
        couplers[ell] = (big, w, keep, len(sites))

    red_a = [partial_trace_array(r.data, n, subset) for r in rhos]
    worst = 0.0
    for k in range(1, len(times) - 1):
        lhs = 1j * (red_a[k + 1] - red_a[k - 1]) / (2.0 * dt)
        rhs = h_eff @ red_a[k] - red_a[k] @ h_eff
        for ell, (big, w, keep, n_big) in couplers.items():
            r_big = partial_trace_array(rhos[k].data, n, big)
            rhs += partial_trace_array(w @ r_big - r_big @ w, n_big, keep)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass(frozen=True)
class CoupledSplit:
    """Sector classification of correlator slots for two coupled systems.

    Slots whose support lies inside system 1 form X1, inside the complement
    X2, and every mixed-support slot lands in the joint sector Y.  Y is
    ordered with the X2 factor fastest, so the uncoupled Y generator is
    kron(M1, I) + kron(I, M2).
    """

    n_sites: int
    system1: int
    x1_codes: tuple[int, ...]
    y_codes: tuple[int, ...]
    x2_codes: tuple[int, ...]

    @property
    def dims(self) -> tuple[int, int, int]:
        return len(self.x1_codes), len(self.y_codes), len(self.x2_codes)

    @property
    def order(self) -> np.ndarray:
        """Codes in (X1, Y, X2) sector order."""
        return np.array(self.x1_codes + self.y_codes + self.x2_codes)


def split_sectors(n_sites: int, system1: int) -> CoupledSplit:
    system1 = check_mask(system1)
    full = (1 << n_sites) - 1
    if system1 == 0 or system1 & ~full or system1 == full:
        raise ValueError("system1 must be a nonempty proper subset of the sites")
    admit(n_sites, ["dense"])
    x1 = []
    x2 = []
    for code in range(1, 4**n_sites):
        support = support_mask(code, n_sites)
        if not support & ~system1:
            x1.append(code)
        elif not support & system1:
            x2.append(code)
    y = tuple(a + b for a in x1 for b in x2)
    split = CoupledSplit(n_sites, system1, tuple(x1), y, tuple(x2))
    n1 = system1.bit_count()
    n2 = n_sites - n1
    assert split.dims == (4**n1 - 1, (4**n1 - 1) * (4**n2 - 1), 4**n2 - 1)
    return split


def _sector_codes(gen: Generator, split: CoupledSplit) -> dict[str, np.ndarray]:
    """The codes of the sectors "1", "m" and "2" of a split of gen's sites."""
    if split.n_sites != gen.n_sites:
        raise ValueError("split and generator site counts differ")
    return dict(zip("1m2", map(np.array, (split.x1_codes, split.y_codes, split.x2_codes))))


def decompose_blocks(
    gen: Generator, split: CoupledSplit
) -> tuple[dict[str, np.ndarray], dict[tuple[str, str], np.ndarray]]:
    """Split M into uncoupled sector blocks and the interaction remainder.

    The uncoupled diagonal ("1", "m", "2") is sliced from M_0, the generator
    of H without the couplings across the split: M_1 and M_2 without the
    identity slot and, on the mixed sector, their Kronecker sum
    kron(M_1, I) + kron(I, M_2).  The interaction blocks (1,m), (m,1),
    (m,m), (m,2), (2,m) are sliced from V, the generator of those couplings
    alone.  M = M_0 + V and the two share no entry.
    """
    codes = _sector_codes(gen, split)
    m_0, v = (build_generator(x).matrix for x in _coupling_split(gen.hamiltonian, split.system1))
    diag = {k: m_0[c][:, c].toarray() for k, c in codes.items()}
    inter = {
        (r, c): v[codes[r]][:, codes[c]].toarray()
        for r, c in (("1", "m"), ("m", "1"), ("m", "m"), ("m", "2"), ("2", "m"))
    }
    return diag, inter


def block_structure(gen: Generator, split: CoupledSplit) -> dict[tuple[str, str], np.ndarray]:
    """M in the 3x3 sector layout: {(row, col): dense block} for the sectors
    "1", "m" and "2", sliced from gen.matrix in (X1, Y, X2) order.

    Pairwise interactions only create or annihilate mixed correlators, so
    the direct X1 <-> X2 blocks are zero.
    """
    codes = _sector_codes(gen, split)
    return {(r, c): gen.matrix[codes[r]][:, codes[c]].toarray() for r in codes for c in codes}
