"""Closed-form resolvent blocks for the transverse two-spin benchmark.

For H = (1/2)(delta1 s0^x + delta2 s1^x + omega s0^z s1^z) the 15-component
correlator resolvent G(z) = (zI - M)^{-1} is an explicit rational function
of z.  With

    eps1 = sqrt(omega^2 + (delta1+delta2)^2)/2
    eps2 = sqrt(omega^2 + (delta1-delta2)^2)/2

(the magnitudes of the four Hamiltonian levels +-eps1, +-eps2) every entry
has its poles among z = 0 and +-i times

    w10 = eps1-eps2,  w20 = eps1+eps2,  w30 = 2 eps1,  w21 = 2 eps2,

the level differences.  Entries are written over the two quartic
denominators

    da = (z^2 + w30^2)(z^2 + w21^2) = s^2 - (2 d1 d2)^2
    db = (z^2 + w10^2)(z^2 + w20^2) = (z^2 + d1^2)(z^2 + d2^2) + w^2 z^2

where s = z^2 + w^2 + d1^2 + d2^2.  All formulas below were obtained by
exact symbolic inversion of the 15x15 generator and are pinned against the
numerical resolvent by the test suite; they satisfy g22 = g11 with
delta1 <-> delta2 swapped, g21(z) = g12(z), and the reflection identities

    gp1(z) = -g1p(-z)^T,    gp2(z) = -g2p(-z)^T,

which follow from G(z)^T = -G(-z) for antisymmetric M.

Block index conventions match the sector layout used by the hierarchy
module: single-site blocks are ordered (x, y, z); pair blocks are ordered
with the site-1 axis fastest, (xx, xy, xz, yx, ..., zz).

These fixtures exist so that generator and resolvent code cannot drift
without a test noticing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from corrdyn.errors import PoleProximityError

_POLE_MARGIN = 1e-8


@dataclass(frozen=True)
class TwoSpinParams:
    delta1: float
    delta2: float
    omega: float


class Frequencies(NamedTuple):
    w10: float
    w20: float
    w30: float
    w21: float


def epsilons(p: TwoSpinParams) -> tuple[float, float]:
    e1 = 0.5 * np.sqrt(p.omega**2 + (p.delta1 + p.delta2) ** 2)
    e2 = 0.5 * np.sqrt(p.omega**2 + (p.delta1 - p.delta2) ** 2)
    return float(e1), float(e2)


def frequencies(p: TwoSpinParams) -> Frequencies:
    """The four oscillation frequencies (level differences) of the benchmark."""
    e1, e2 = epsilons(p)
    return Frequencies(e1 - e2, e1 + e2, 2.0 * e1, 2.0 * e2)


def _check_pole(p: TwoSpinParams, z: complex) -> None:
    f = frequencies(p)
    poles = np.array([0.0, f.w10, f.w20, f.w30, f.w21])
    poles = np.concatenate([poles, -poles])
    scale = max(1.0, float(np.max(np.abs(poles))))
    dist = np.min(np.abs(z - 1j * poles))
    if dist <= _POLE_MARGIN * scale:
        raise PoleProximityError(
            f"z = {z} is within {dist:.2e} of a two-spin resolvent pole"
        )


def _pieces(p: TwoSpinParams, z: complex):
    d1, d2, w = p.delta1, p.delta2, p.omega
    z2 = z * z
    s = z2 + w**2 + d1**2 + d2**2
    da = s * s - (2.0 * d1 * d2) ** 2
    db = (z2 + d1**2) * (z2 + d2**2) + w**2 * z2
    pl = s - 2.0 * d2**2  # z^2 + w^2 + d1^2 - d2^2
    mn = s - 2.0 * d1**2  # z^2 + w^2 - d1^2 + d2^2
    return d1, d2, w, z2, s, da, db, pl, mn


def g11(p: TwoSpinParams, z: complex) -> np.ndarray:
    """3x3 propagator of the site-0 polarization onto itself."""
    _check_pole(p, z)
    d1, d2, w, z2, s, da, db, _, _ = _pieces(p, z)
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = 1.0 / z - w**2 * s / (z * da)
    out[1, 1] = z * (z2 + d2**2) / db
    out[1, 2] = -d1 * (z2 + d2**2) / db
    out[2, 1] = d1 * (z2 + d2**2) / db
    out[2, 2] = z * (z2 + d2**2 + w**2) / db
    return out


def g22(p: TwoSpinParams, z: complex) -> np.ndarray:
    """Site-1 self block; g11 under the delta1 <-> delta2 swap."""
    return g11(TwoSpinParams(p.delta2, p.delta1, p.omega), z)


def g12(p: TwoSpinParams, z: complex) -> np.ndarray:
    """Cross block site 0 <- site 1; only the xx entry survives."""
    _check_pole(p, z)
    d1, d2, w, _, _, da, _, _, _ = _pieces(p, z)
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = 2.0 * d1 * d2 * w**2 / (z * da)
    return out


def g21(p: TwoSpinParams, z: complex) -> np.ndarray:
    """Equal to g12: the only surviving entry is odd in z."""
    return g12(p, z)


# pair-block column order: site-1 axis fastest
_XX, _XY, _XZ, _YX, _YY, _YZ, _ZX, _ZY, _ZZ = range(9)


def g1p(p: TwoSpinParams, z: complex) -> np.ndarray:
    """3x9 block: site-0 polarization driven by the pair correlators."""
    _check_pole(p, z)
    d1, d2, w, z2, s, da, db, pl, mn = _pieces(p, z)
    out = np.zeros((3, 9), dtype=complex)
    out[0, _YY] = -d2 * w * mn / (z * da)
    out[0, _YZ] = -w * s / da
    out[0, _ZY] = 2.0 * d1 * d2 * w / da
    out[0, _ZZ] = d1 * w * pl / (z * da)
    out[1, _XY] = d2 * w * z / db
    out[1, _XZ] = w * z2 / db
    out[2, _XY] = d1 * d2 * w / db
    out[2, _XZ] = d1 * w * z / db
    return out


def g2p(p: TwoSpinParams, z: complex) -> np.ndarray:
    """3x9 block: site-1 polarization driven by the pair correlators."""
    _check_pole(p, z)
    d1, d2, w, z2, s, da, db, pl, mn = _pieces(p, z)
    out = np.zeros((3, 9), dtype=complex)
    out[0, _YY] = -d1 * w * pl / (z * da)
    out[0, _YZ] = 2.0 * d1 * d2 * w / da
    out[0, _ZY] = -w * s / da
    out[0, _ZZ] = d2 * w * mn / (z * da)
    out[1, _YX] = d1 * w * z / db
    out[1, _ZX] = w * z2 / db
    out[2, _YX] = d1 * d2 * w / db
    out[2, _ZX] = d2 * w * z / db
    return out


def gp1(p: TwoSpinParams, z: complex) -> np.ndarray:
    """9x3 block, the reflection -g1p(-z)^T of the 3x9 block."""
    return -g1p(p, -z).T


def gp2(p: TwoSpinParams, z: complex) -> np.ndarray:
    return -g2p(p, -z).T


def gpp(p: TwoSpinParams, z: complex) -> np.ndarray:
    """9x9 pair-correlator self block."""
    _check_pole(p, z)
    d1, d2, w, z2, s, da, db, pl, mn = _pieces(p, z)
    out = np.zeros((9, 9), dtype=complex)
    out[_XX, _XX] = 1.0 / z

    out[_XY, _XY] = z * (z2 + d1**2 + w**2) / db
    out[_XY, _XZ] = -d2 * (z2 + d1**2) / db
    out[_XZ, _XY] = d2 * (z2 + d1**2) / db
    out[_XZ, _XZ] = z * (z2 + d1**2) / db

    out[_YX, _YX] = z * (z2 + d2**2 + w**2) / db
    out[_YX, _ZX] = -d1 * (z2 + d2**2) / db
    out[_ZX, _YX] = d1 * (z2 + d2**2) / db
    out[_ZX, _ZX] = z * (z2 + d2**2) / db

    out[_YY, _YY] = (z2 + w**2) * s / (z * da)
    out[_YY, _YZ] = -d2 * mn / da
    out[_YY, _ZY] = -d1 * pl / da
    out[_YY, _ZZ] = 2.0 * d1 * d2 * (z2 + w**2) / (z * da)
    out[_YZ, _YY] = d2 * mn / da
    out[_YZ, _YZ] = z * s / da
    out[_YZ, _ZY] = -2.0 * d1 * d2 * z / da
    out[_YZ, _ZZ] = -d1 * pl / da
    out[_ZY, _YY] = d1 * pl / da
    out[_ZY, _YZ] = -2.0 * d1 * d2 * z / da
    out[_ZY, _ZY] = z * s / da
    out[_ZY, _ZZ] = -d2 * mn / da
    out[_ZZ, _YY] = 2.0 * d1 * d2 * (z2 + w**2) / (z * da)
    out[_ZZ, _YZ] = d1 * pl / da
    out[_ZZ, _ZY] = d2 * mn / da
    out[_ZZ, _ZZ] = (z2 + w**2) * s / (z * da)
    return out


def full_resolvent(p: TwoSpinParams, z: complex) -> np.ndarray:
    """All blocks assembled in the sector order (site-0, pair, site-1)."""
    top = np.hstack([g11(p, z), g1p(p, z), g12(p, z)])
    mid = np.hstack([gp1(p, z), gpp(p, z), gp2(p, z)])
    bot = np.hstack([g21(p, z), g2p(p, z), g22(p, z)])
    return np.vstack([top, mid, bot])
