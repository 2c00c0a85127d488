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

The rules depend only on the base-4 digits of the row code, so
build_generator applies (a), (b) and (c) as digit masks over all 4**N codes
at once; each term reaches its column by a constant code shift.  The
row-by-row reading of the rules is kept in the test suite as the reference
the build must match bit for bit.  Every nonzero field component or
coupling entry adds 4**N / 2 entries, so the size of M is known before it
is built (generator_nnz, admit_generator), and the rows are built in
chunks of ROW_CHUNK codes that share their top digits: a rule that tests
only low digits selects the same low codes in every chunk, and one that
tests a top digit selects a whole chunk or none of it.  Codes and indices
are int32 throughout, so scipy's COO-to-CSR conversion copies none of
them, and only one chunk's temporaries exist next to the finished CSR.
build_generator imports scipy.sparse itself: it is the one place here that
constructs a sparse matrix, so a process that never builds M (a decompose
run, a config refused at load) never loads scipy.

Split the sites into system 1 and the rest, system 2.  A field or a
coupling inside one system changes only that system's digits, by an entry
that depends only on them, so M is the Kronecker sum of M_1 and M_2, the
generators of H restricted to each system, plus V, the generator of the
cross-system couplings alone.  _bipartition builds the three from H's
terms.  half_split takes the low N // 2 sites as system 1, so that
M = kron(I, M_1) + kron(M_2, I) + V, and Generator caches it: from
SPLIT_MIN_SITES sites on, apply computes M x from it as two small dense
products and a sparse one with about half of M's nonzeros, faster than the
CSR product, so rk4 reads the CSR M only for ||M||_inf and nnz.  The
coupled-system sector blocks come from the same split for any system 1:
X1 and X2 are the nonidentity slots of M_1 and M_2, the mixed sector's
diagonal is their Kronecker sum and its interaction blocks are slices of
V, so the X1 <-> X2 blocks are zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .combinatorics import bit_indices
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

# build_generator fills M in chunks of at most this many rows, so that only
# one chunk's temporaries exist next to the CSR M: at 7 sites the traced
# build peak is 29 MB for a 21 MB M (82 MB in one piece)
ROW_CHUNK = 4**6

# admit_generator refuses an M, with its expm plans when an expm run asks,
# of more than this many bytes (exit 4)
GENERATOR_BYTES_CAP = 2 * 1024**3

# admit_dense refuses work on dense arrays over more than this many
# correlator slots (exit 4): the spectrum, the resolvent and the sector blocks
DENSE_DIM_CAP = 4**6


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


def _bipartition(h: SpinHamiltonian, system1: int) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
    """Dense M_1 and M_2 of H restricted to the sites in system1 and to the
    rest, and the CSR V of the couplings between the two, in H's labels."""
    n = h.n_sites
    m_1 = build_generator(restrict(h, system1)).matrix.toarray()
    m_2 = build_generator(restrict(h, system1 ^ ((1 << n) - 1))).matrix.toarray()
    cross = {(i, j): v for (i, j), v in h.couplings.items() if (system1 >> i ^ system1 >> j) & 1}
    v = build_generator(SpinHamiltonian(n, np.zeros((n, 3)), cross)).matrix
    return m_1, m_2, v


def half_split(h: SpinHamiltonian) -> HalfSplit:
    """_bipartition with system 1 = the low n_sites // 2 sites (A, the low digits)."""
    return HalfSplit(*_bipartition(h, (1 << h.n_sites // 2) - 1))


@dataclass
class Generator:
    """Sparse generator matrix over the 4**N correlator slots.

    It keeps the Hamiltonian it was built from: M is the Pauli-basis form of
    -i[H, .], so its spectral data come from the eigensystem of H, which is
    computed once on first use and cached.  The split of M into its two
    halves' Kronecker sum and their interaction, which apply uses from
    SPLIT_MIN_SITES sites on, is built from the Hamiltonian's terms on the
    first such apply and cached the same way.
    """

    n_sites: int
    matrix: sp.csr_matrix
    hamiltonian: SpinHamiltonian = field(repr=False)
    _eigensystem: EigenSystem | None = field(default=None, repr=False, compare=False)
    _split: HalfSplit | None = field(default=None, repr=False, compare=False)

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
        """max_r sum_c |M_rc|, summed as scipy sums the rows of abs(M).

        The rows are read ROW_CHUNK at a time, so no copy of M is made.
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


def generator_bytes(h: SpinHamiltonian) -> int:
    """Bytes of the CSR M: float64 data, int32 column indices and row pointers."""
    return 12 * generator_nnz(h) + 4 * (4**h.n_sites + 1)


def admit_generator(h: SpinHamiltonian, expm: bool = False) -> None:
    """Raise SizeCapError when M would take more than GENERATOR_BYTES_CAP bytes.

    With expm, the count adds 16 bytes per nonzero: an expm evolution holds
    up to two Taylor plans next to M, each a scaled copy of M's values.
    """
    need = generator_bytes(h) + (16 * generator_nnz(h) if expm else 0)
    if need > GENERATOR_BYTES_CAP:
        raise SizeCapError(f"generator capped at {GENERATOR_BYTES_CAP} bytes, need {need}")


def build_generator(h: SpinHamiltonian) -> Generator:
    """Assemble M by applying rules (a)-(c) to all 4**N row codes at once.

    Each rule picks its rows by digit masks on the row code and reaches its
    column by one constant code shift, so every (site, axis, partner,
    epsilon term) adds a whole block of entries; a zero coefficient adds none.
    The rows are filled in chunks of ROW_CHUNK, split on the top digits: a
    rule selects the same low codes in every chunk whose top digits it
    accepts.  Each chunk goes through scipy's COO-to-CSR conversion and is
    copied into the CSR arrays, allocated once from generator_nnz.
    """
    import scipy.sparse as sp

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

    def add(sel: tuple, shift: int, coeff: float) -> None:
        if coeff:
            blocks.append((shift, sel[0], coeff, sel[1], sel[2]))

    def both(a: tuple, b: tuple) -> tuple:
        """The rows that pass the digit tests a and b."""
        return codes[a[0] & b[0]], a[1] | b[1], a[2] | b[2]

    for i in range(n):
        for mu in (1, 2, 3):
            on = digit[i][mu]
            terms = _EPS_TERMS[mu]
            sel = (codes[on[0]], on[1], on[2])  # (a) field: mu -> nu at i
            for alpha, nu, s in terms:
                add(sel, (nu - mu) << 2 * i, s * h.fields[i, alpha - 1])
            for j in h.partners(i):
                v = h.coupling(i, j)
                for muj in (1, 2, 3):  # (b) intra-subset: j leaves the support
                    sel = both(on, digit[j][muj])
                    for alpha, nu, s in terms:
                        shift = ((nu - mu) << 2 * i) - (muj << 2 * j)
                        add(sel, shift, s * v[alpha - 1, muj - 1])
                sel = both(on, digit[j][0])  # (c) growth: j joins as lam
                for alpha, nu, s in terms:
                    for lam in (1, 2, 3):
                        shift = ((nu - mu) << 2 * i) + (lam << 2 * j)
                        add(sel, shift, s * v[alpha - 1, lam - 1])

    # blocks in ascending shift list each row's columns in ascending order,
    # so the CSR conversion finds them canonical and skips its per-row sort
    blocks.sort(key=lambda b: b[0])

    def chunk(k: int, part: list, cols: np.ndarray, vals: np.ndarray) -> sp.csr_matrix:
        """Rows k * step ... (k + 1) * step - 1 of M, from the blocks in part.

        The COO columns and values are written into cols and vals, which
        hold exactly the chunk's entries.
        """
        sizes = [b[1].size for b in part]
        rows = np.concatenate([np.empty(0, dtype=np.int32)] + [b[1] for b in part])
        shifts = np.array([b[0] + k * step for b in part], dtype=np.int32)
        np.add(rows, np.repeat(shifts, sizes), out=cols)
        vals[:] = np.repeat(np.array([b[2] for b in part], dtype=float), sizes)
        return sp.coo_matrix((vals, (rows, cols)), shape=(step, dim)).tocsr()

    nnz = generator_nnz(h)
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    if step == dim:
        return Generator(n, chunk(0, blocks, indices, data), h)
    # each chunk's COO goes into the slices of indices and data that its CSR
    # entries then overwrite, so a chunk holds only its rows and the CSR
    # conversion's output next to M
    indptr = np.zeros(dim + 1, dtype=np.int32)
    end = 0
    for k in range(dim // step):
        part = [b for b in blocks if k & b[3] == b[4]]
        start, end = end, end + sum(b[1].size for b in part)
        csr = chunk(k, part, indices[start:end], data[start:end])
        indices[start:end] = csr.indices
        data[start:end] = csr.data
        ends = indptr[k * step + 1 : (k + 1) * step + 1]
        ends[:] = csr.indptr[1:]
        ends += start
        del csr  # before the next chunk is built
    assert end == nnz, "chunks disagree with generator_nnz"
    matrix = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    return Generator(n, matrix, h)


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
    """
    times = np.asarray(times, dtype=float)
    if len(times) < 3:
        raise ValueError("need at least 3 trajectory points")
    steps = np.diff(times)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-12 * max(abs(dt), 1.0):
        raise ValueError("trajectory must be uniformly sampled")
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


def admit_dense(n_sites: int) -> None:
    """Raise SizeCapError when the 4**n_sites slots exceed DENSE_DIM_CAP."""
    if 4**n_sites > DENSE_DIM_CAP:
        raise SizeCapError(
            f"spectral tasks capped at dimension {DENSE_DIM_CAP}, need {4**n_sites}"
        )


def split_sectors(n_sites: int, system1: int) -> CoupledSplit:
    full = (1 << n_sites) - 1
    if system1 == 0 or system1 & ~full or system1 == full:
        raise ValueError("system1 must be a nonempty proper subset of the sites")
    admit_dense(n_sites)
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


@dataclass(frozen=True)
class BlockStructure:
    """Dense sector blocks of a generator in the (X1, Y, X2) layout."""

    split: CoupledSplit
    blocks: dict[tuple[str, str], np.ndarray]

    def block(self, row: str, col: str) -> np.ndarray:
        return self.blocks[(row, col)]


def decompose_blocks(
    gen: Generator, split: CoupledSplit
) -> tuple[dict[str, np.ndarray], dict[tuple[str, str], np.ndarray]]:
    """Split M into uncoupled sector blocks and the interaction remainder.

    From _bipartition of the generator's Hamiltonian: the uncoupled diagonal
    is (M1, kron(M1, I) + kron(I, M2), M2), M_1 and M_2 without the identity
    slot, and the interaction blocks (1,m), (m,1), (m,m), (m,2), (2,m) are
    V's entries between the sectors' codes.
    """
    if split.n_sites != gen.n_sites:
        raise ValueError("split and generator site counts differ")
    m_1, m_2, v = _bipartition(gen.hamiltonian, split.system1)
    m1, m2 = m_1[1:, 1:], m_2[1:, 1:]
    mixed0 = np.kron(m1, np.eye(len(m2)))
    mixed0 += np.kron(np.eye(len(m1)), m2)
    codes = {"1": split.x1_codes, "m": split.y_codes, "2": split.x2_codes}
    inter = {
        (r, c): v[np.array(codes[r])][:, np.array(codes[c])].toarray()
        for r, c in (("1", "m"), ("m", "1"), ("m", "m"), ("m", "2"), ("2", "m"))
    }
    return {"1": m1, "m": mixed0, "2": m2}, inter


def block_structure(gen: Generator, split: CoupledSplit) -> BlockStructure:
    """M in the 3x3 sector layout: decompose_blocks' diagonal plus its interaction.

    Pairwise interactions only create or annihilate mixed correlators, so
    the direct X1 <-> X2 blocks are zero.
    """
    diag, inter = decompose_blocks(gen, split)
    d1, _, d2 = split.dims
    blocks = dict(inter)
    blocks["1", "1"], blocks["2", "2"] = diag["1"], diag["2"]
    blocks["m", "m"] = diag["m"]  # diag is not returned, so add in place
    blocks["m", "m"] += inter["m", "m"]
    blocks["1", "2"], blocks["2", "1"] = np.zeros((d1, d2)), np.zeros((d2, d1))
    return BlockStructure(split, blocks)
