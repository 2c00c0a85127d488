import numpy as np
import pytest

from corrdyn import oracle
from corrdyn.dynamics import resolvent
from corrdyn.errors import PoleProximityError
from corrdyn.hamiltonian import SpinHamiltonian, transverse_pair
from corrdyn.hierarchy import build_generator, split_sectors

import reference_two_spin as ts


def sector_resolvent(p: ts.TwoSpinParams, z: complex) -> np.ndarray:
    gen = build_generator(transverse_pair(p.delta1, p.delta2, p.omega))
    order = split_sectors(2, 0b01).order
    return resolvent(gen, z)[np.ix_(order, order)]


def sample_z(rng, p, count):
    scale = max(ts.frequencies(p))
    zs = []
    while len(zs) < count:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * max(scale, 1.0)
        if abs(z.real) > 0.02 * max(scale, 1.0):
            zs.append(z)
    return zs


def split_blocks(full):
    return {
        "g11": full[0:3, 0:3],
        "g1p": full[0:3, 3:12],
        "g12": full[0:3, 12:15],
        "gp1": full[3:12, 0:3],
        "gpp": full[3:12, 3:12],
        "gp2": full[3:12, 12:15],
        "g21": full[12:15, 0:3],
        "g2p": full[12:15, 3:12],
        "g22": full[12:15, 12:15],
    }


def test_frequencies_formulas():
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    e1, e2 = ts.epsilons(p)
    assert abs(e1 - 0.5 * np.sqrt(2.96)) < 1e-15
    assert abs(e2 - 0.5 * np.sqrt(1.04)) < 1e-15
    f = ts.frequencies(p)
    assert np.allclose([f.w10, f.w20, f.w30, f.w21], [e1 - e2, e1 + e2, 2 * e1, 2 * e2])


def test_frequencies_degenerate_cases():
    f = ts.frequencies(ts.TwoSpinParams(1.0, 1.0, 0.0))
    assert np.allclose([f.w10, f.w20, f.w30, f.w21], [1.0, 1.0, 2.0, 0.0])
    # symmetric splittings: the small level pair sits at omega/2
    p = ts.TwoSpinParams(0.9, 0.9, 0.7)
    assert abs(ts.epsilons(p)[1] - 0.35) < 1e-15


def test_frequencies_match_oracle_level_differences():
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    es = oracle.eigensystem(transverse_pair(*vars(p).values()))
    diffs = np.unique(np.round(oracle.energy_differences(es), 12))
    f = np.sort(ts.frequencies(p))
    assert np.max(np.abs(np.sort(diffs) - f)) < 1e-10


def test_blocks_match_numerical_resolvent(rng):
    for _ in range(10):
        p = ts.TwoSpinParams(*rng.uniform(0.2, 1.5, size=3))
        for z in sample_z(rng, p, 4):
            num = split_blocks(sector_resolvent(p, z))
            ana = {
                "g11": ts.g11(p, z), "g12": ts.g12(p, z), "g21": ts.g21(p, z),
                "g22": ts.g22(p, z), "g1p": ts.g1p(p, z), "g2p": ts.g2p(p, z),
                "gp1": ts.gp1(p, z), "gp2": ts.gp2(p, z), "gpp": ts.gpp(p, z),
            }
            scale = max(np.max(np.abs(b)) for b in num.values())
            for key, block in ana.items():
                assert np.max(np.abs(block - num[key])) < 1e-10 * scale, key


def test_reflection_identities(rng):
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    for z in sample_z(rng, p, 5):
        assert np.max(np.abs(ts.gp1(p, z) + ts.g1p(p, -z).T)) < 1e-12
        assert np.max(np.abs(ts.gp2(p, z) + ts.g2p(p, -z).T)) < 1e-12
        # the same reflection holds for the numerical blocks
        num_p = split_blocks(sector_resolvent(p, z))
        num_m = split_blocks(sector_resolvent(p, -z))
        assert np.max(np.abs(num_p["gp1"] + num_m["g1p"].T)) < 1e-10
        # whole-matrix statement: G(z)^T = -G(-z)
        assert np.max(np.abs(sector_resolvent(p, z).T + sector_resolvent(p, -z))) < 1e-10


def test_swap_symmetry(rng):
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    q = ts.TwoSpinParams(0.6, 0.8, 1.0)
    for z in sample_z(rng, p, 5):
        assert np.max(np.abs(ts.g22(p, z) - ts.g11(q, z))) < 1e-14
        assert np.max(np.abs(ts.g21(p, z) - ts.g12(p, z))) < 1e-14


def test_free_limit_is_identity_over_z():
    p = ts.TwoSpinParams(0.0, 0.0, 0.0)
    z = 0.4 + 0.2j
    assert np.max(np.abs(ts.g11(p, z) - np.eye(3) / z)) < 1e-14
    assert np.max(np.abs(ts.gpp(p, z) - np.eye(9) / z)) < 1e-14


def test_decoupled_limit_single_spin_resolvent():
    p = ts.TwoSpinParams(0.8, 0.6, 0.0)
    z = 0.3 + 0.7j
    gen1 = build_generator(SpinHamiltonian(1, [[0.8, 0.0, 0.0]]))
    one = resolvent(gen1, z)[1:, 1:]
    assert np.max(np.abs(ts.g11(p, z) - one)) < 1e-12
    # the cross block's only numerator is proportional to delta1*delta2*omega^2
    assert np.max(np.abs(ts.g12(p, z))) == 0.0
    assert np.max(np.abs(ts.g12(ts.TwoSpinParams(0.0, 0.7, 1.2), z))) == 0.0


def test_pole_locations():
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    f = ts.frequencies(p)
    for w in (0.0, f.w10, f.w20, f.w30, f.w21):
        with pytest.raises(PoleProximityError):
            ts.full_resolvent(p, 1j * w)
    # slightly off the pole is fine
    ts.full_resolvent(p, 1j * f.w30 + 0.05)


def test_residue_sum_is_identity():
    p = ts.TwoSpinParams(0.8, 0.6, 1.0)
    z = 1e8 + 1e8j
    approx = ts.full_resolvent(p, z) * z
    assert np.max(np.abs(approx - np.eye(15))) < 1e-7


def test_poles_exhausted_by_level_differences(rng):
    # g(z) stays finite approaching any point off the pole set
    p = ts.TwoSpinParams(0.9, 0.4, 1.2)
    f = ts.frequencies(p)
    poles = {0.0, f.w10, f.w20, f.w30, f.w21}
    for w in rng.uniform(0.0, 2.5 * max(f), size=40):
        if min(abs(w - q) for q in poles) > 0.05:
            block = ts.full_resolvent(p, 1j * w + 1e-7)
            assert np.max(np.abs(block)) < 1e9
