"""Index algebra of Pauli strings.

A Pauli string over N sites is encoded as an integer in [0, 4**N): base-4
digit i holds the operator on site i with the convention

    0 = identity, 1 = sigma^x, 2 = sigma^y, 3 = sigma^z,

so code 0 is the identity string and site 0 occupies the least-significant
digit.  The same integers index the correlator supervector used everywhere
downstream.

The ladder (barred) single-site components are sigma^+- = (sigma^x +-
i*sigma^y)/sqrt(2); conversion of whole correlator tables is a per-site
linear map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .combinatorics import as_int

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

_AXIS_TO_DIGIT = {"x": 1, "y": 2, "z": 3}
_DIGIT_TO_AXIS = "ixyz"

# epsilon(mu, alpha, nu) = sign, listed as mu -> ((alpha, nu, sign), ...) over
# the nonzero contractions; the convention is epsilon(x, y, z) = +1.
_EPS_TERMS = {
    1: ((2, 3, 1.0), (3, 2, -1.0)),
    2: ((3, 1, 1.0), (1, 3, -1.0)),
    3: ((1, 2, 1.0), (2, 1, -1.0)),
}


def epsilon(mu: str, alpha: str, nu: str) -> int:
    """Levi-Civita symbol on Cartesian axis labels, epsilon('x','y','z') = +1."""
    for a in (mu, alpha, nu):
        if a not in _AXIS_TO_DIGIT:
            raise ValueError(f"Cartesian only: axis {a!r}")
    i, j, k = (_AXIS_TO_DIGIT[a] for a in (mu, alpha, nu))
    return _eps_digits(i, j, k)


def _eps_digits(i: int, j: int, k: int) -> int:
    if {i, j, k} != {1, 2, 3}:
        return 0
    # cyclic (1,2,3) -> +1
    return 1 if (j - i) % 3 == 1 else -1


def digit(code: int, site: int) -> int:
    return (code >> (2 * site)) & 3


def with_digit(code: int, site: int, d: int) -> int:
    return (code & ~(3 << (2 * site))) | (d << (2 * site))


def support_mask(code: int, n_sites: int) -> int:
    mask = 0
    for i in range(n_sites):
        if digit(code, i):
            mask |= 1 << i
    return mask


@dataclass(frozen=True)
class PauliString:
    """A product of single-site Cartesian Pauli operators."""

    n_sites: int
    code: int

    def __post_init__(self):
        if as_int(self.n_sites, "n_sites") < 0:
            raise ValueError(f"n_sites must be >= 0, got {self.n_sites}")
        as_int(self.code, "code")
        if not 0 <= self.code < 4**self.n_sites:
            raise ValueError(f"code {self.code} out of range for {self.n_sites} sites")

    @classmethod
    def from_axes(cls, n_sites: int, axes: dict[int, str]) -> "PauliString":
        code = 0
        for site, axis in axes.items():
            if not 0 <= site < n_sites:
                raise ValueError(f"site {site} out of range")
            if axis not in _AXIS_TO_DIGIT:
                raise ValueError(f"Cartesian only: axis {axis!r}")
            code = with_digit(code, site, _AXIS_TO_DIGIT[axis])
        return cls(n_sites, code)

    def axes(self) -> dict[int, str]:
        return {
            i: _DIGIT_TO_AXIS[digit(self.code, i)]
            for i in range(self.n_sites)
            if digit(self.code, i)
        }

    def label(self) -> str:
        """Text form, e.g. 'x0 z2'; the identity is the empty string."""
        return " ".join(f"{a}{i}" for i, a in sorted(self.axes().items()))

    def matrix(self) -> np.ndarray:
        """Dense 2**n x 2**n matrix, site 0 on the least-significant qubit."""
        return sum_matrix(self.n_sites, [(1.0, self.code)])


# (-i)**k for k mod 4: the phase of a string with k sigma^y factors
_PHASES = np.array([1.0, -1.0j, -1.0, 1.0j])


def sum_matrix(n_sites: int, terms: list[tuple[complex, int]]) -> np.ndarray:
    """Dense 2**n x 2**n matrix of sum coeff * P_code over (coeff, code) terms.

    Every string is a signed permutation matrix: row r holds its one entry
    in column r ^ x, x the bits of the sites carrying sigma^x or sigma^y,
    with phase (-i)**(count of sigma^y) * (-1)**popcount(r & z), z the bits
    of the sites carrying sigma^y or sigma^z.  Terms are added in the order
    given, so the sum is the one a term-by-term accumulation of the
    Kronecker products gives.  Site 0 is the least-significant qubit.
    """
    dim = 2**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    if not terms:
        return out
    coeffs, codes = zip(*terms)
    d = (np.array(codes, dtype=np.int64)[:, None] >> (2 * np.arange(n_sites))) & 3
    bits = 1 << np.arange(n_sites)
    x = ((d == 1) | (d == 2)) @ bits
    z = (d >= 2) @ bits
    rows = np.arange(dim)
    parity = np.bitwise_count(rows & z[:, None]) & 1
    phases = _PHASES[((d == 2).sum(axis=1)[:, None] + 2 * parity) % 4]
    for coeff, mask, phase in zip(coeffs, x, phases):
        out[rows, rows ^ mask] += coeff * phase
    return out


# single-site products sigma^a sigma^b = phase * sigma^c, tabulated over digits
_SITE_MUL = [[None] * 4 for _ in range(4)]
for _a in range(4):
    for _b in range(4):
        if _a == 0:
            _SITE_MUL[_a][_b] = (_b, 1.0 + 0.0j)
        elif _b == 0:
            _SITE_MUL[_a][_b] = (_a, 1.0 + 0.0j)
        elif _a == _b:
            _SITE_MUL[_a][_b] = (0, 1.0 + 0.0j)
        else:
            _c = 6 - _a - _b
            _SITE_MUL[_a][_b] = (_c, 1.0j * _eps_digits(_a, _b, _c))


def multiply(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """Operator product a*b as (phase, string) with phase in {+-1, +-i}."""
    if a.n_sites != b.n_sites:
        raise ValueError("strings must cover the same number of sites")
    phase = 1.0 + 0.0j
    code = 0
    for site in range(a.n_sites):
        d, f = _SITE_MUL[digit(a.code, site)][digit(b.code, site)]
        phase *= f
        code = with_digit(code, site, d)
    return phase, PauliString(a.n_sites, code)


def _sites_of(length: int, base: int = 4) -> int:
    n = 0
    while base**n < length:
        n += 1
    if base**n != length:
        raise ValueError(f"length {length} is not a power of {base}")
    return n


def _apply_site_map(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply a d_out x d_in map independently to every base-d_in digit of the index.

    The index is the first axis, d_out**n long in the C-ordered result; any
    further axes are a batch carried along.  Each site is one GEMM on the
    leading digit, whose output digit moves to the end, so the digits end in
    order behind the batch and one transposing copy puts the index first.
    """
    values = np.asarray(values, dtype=complex)
    d_out, d_in = t.shape
    n = _sites_of(values.shape[0], d_in)
    w = values.reshape(-1)
    for _ in range(n):
        w = (w.reshape(d_in, -1).T @ t.T).reshape(-1)
    out = np.ascontiguousarray(w.reshape(-1, d_out**n).T)
    return out.reshape((d_out**n,) + values.shape[1:])


_SQRT2 = np.sqrt(2.0)
# Cartesian -> ladder map per site, digit order (I, +, -, z)
_TO_LADDER = np.array(
    [
        [1, 0, 0, 0],
        [0, 1 / _SQRT2, 1j / _SQRT2, 0],
        [0, 1 / _SQRT2, -1j / _SQRT2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def to_ladder(values: np.ndarray) -> np.ndarray:
    """Cartesian correlator table -> ladder table with digits (I, +, -, z).

    Entry c of the result is the expectation of the ladder string whose
    digit on site i selects among identity, sigma^+, sigma^-, sigma^z.
    """
    return _apply_site_map(values, _TO_LADDER)


@dataclass(frozen=True)
class Observable:
    """A (possibly complex) linear combination of Cartesian strings.

    Cartesian labels parse to a single unit-weight term; ladder tokens expand
    into 2**k Cartesian terms with weights built from 1/sqrt(2) and +-i/sqrt(2).
    """

    n_sites: int
    terms: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        if as_int(self.n_sites, "n_sites") < 0:
            raise ValueError(f"n_sites must be >= 0, got {self.n_sites}")
        for _, c in self.terms:
            if not 0 <= as_int(c, "code") < 4**self.n_sites:
                raise ValueError(f"code {c} out of range for {self.n_sites} sites")

    @property
    def is_single_string(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][0] == 1.0

    @property
    def code(self) -> int:
        if not self.is_single_string:
            raise ValueError("observable is not a single Cartesian string")
        return self.terms[0][1]

    def expectation(self, values: np.ndarray) -> complex:
        return sum(w * values[c] for w, c in self.terms)


def parse_label(text: str, n_sites: int) -> Observable:
    """Parse the whitespace-separated token grammar, e.g. 'x0 z2' or '+1'.

    Each token is one axis character in x, y, z, +, - immediately followed by
    a decimal site index; the empty string denotes the identity.
    """
    if as_int(n_sites, "n_sites") < 0:
        raise ValueError(f"n_sites must be >= 0, got {n_sites}")
    terms: list[tuple[complex, int]] = [(1.0 + 0.0j, 0)]
    seen = 0
    for tok in text.split():
        axis, idx = tok[0], tok[1:]
        if axis not in "xyz+-":
            raise ValueError(f"bad axis character {axis!r} in token {tok!r}")
        if not idx.isdigit():
            raise ValueError(f"missing or bad site index in token {tok!r}")
        site = int(idx)
        if site >= n_sites:
            raise ValueError(f"site {site} out of range for {n_sites} sites")
        if seen >> site & 1:
            raise ValueError(f"duplicate site {site}")
        seen |= 1 << site
        if axis in _AXIS_TO_DIGIT:
            d = _AXIS_TO_DIGIT[axis]
            terms = [(w, with_digit(c, site, d)) for w, c in terms]
        else:
            sign = 1.0 if axis == "+" else -1.0
            terms = [
                t
                for w, c in terms
                for t in (
                    (w / _SQRT2, with_digit(c, site, 1)),
                    (sign * 1j * w / _SQRT2, with_digit(c, site, 2)),
                )
            ]
    return Observable(n_sites, tuple(terms))
