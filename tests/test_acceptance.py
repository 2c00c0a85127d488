"""Release acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
pytest -s) including its measured runtime, and asserts both the numerical
tolerance and the runtime budget.
"""

import time

import numpy as np
from corrdyn import oracle, states
from corrdyn.combinatorics import enumerate_partitions, enumerate_subsets
from corrdyn.decomposition import (
    connected_pair,
    connected_triple,
    correlated_parts,
    cumulant_parts,
    cumulant_reconstruct,
    max_trace_defect,
    reconstruct,
)
from corrdyn.density import extract_correlators, partial_trace_array
from corrdyn.dynamics import dyson_series, evolve, resolvent, spectrum
from corrdyn.hamiltonian import SpinHamiltonian, transverse_pair
from corrdyn.hierarchy import (
    antisymmetry_defect,
    block_structure,
    build_generator,
    reduced_eom_residual,
    split_sectors,
)
from conftest import random_hamiltonian, random_mixed_state, up_right_mixture
import reference_two_spin as ts
from test_dynamics import weak_coupling_hamiltonian
from test_hierarchy import EPS, cross_matrix
from test_two_spin_analytic import sample_z, split_blocks


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({self.label}) [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def corpus(n, count=100, seed_base=5150):
    rng = np.random.default_rng(seed_base + n)
    return [random_mixed_state(rng, n) for _ in range(count)]


def test_criterion_1_partition_counts():
    with Criterion(1, "subset and partition counts", 1.0):
        expected = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
        for n, count in expected.items():
            mask = (1 << n) - 1
            assert len(list(enumerate_partitions(mask))) == count
            assert len(list(enumerate_subsets(mask))) == 2**n
        assert len(list(enumerate_subsets(0))) == 1


def test_criterion_2_trace_zero_law():
    with Criterion(2, "zero single-cell traces of correlated parts", 60.0):
        worst = 0.0
        for n in (2, 3, 4, 5):
            for rho in corpus(n):
                parts = correlated_parts(rho)
                assert len(parts) == 2**n - n - 1
                for mask, part in parts.items():
                    worst = max(worst, max_trace_defect({mask: part}))
        assert worst < 1e-12


def test_criterion_3_reconstruction_identities():
    with Criterion(3, "power-set and partition reconstructions", 120.0):
        bell = {2: 2, 3: 5, 4: 15, 5: 52}
        for n in (2, 3, 4, 5):
            assert sum(1 for _ in enumerate_partitions((1 << n) - 1)) == bell[n]
            for rho in corpus(n):
                parts = correlated_parts(rho)
                # contributing power-set terms: everything except single cells
                assert len(parts) + 1 == 2**n - n
                singles = {
                    i: partial_trace_array(rho.data, n, 1 << i) for i in range(n)
                }
                back = reconstruct(n, singles, parts)
                assert np.max(np.abs(back.data - rho.data)) < 1e-12
                cback = cumulant_reconstruct(n, cumulant_parts(rho))
                assert np.max(np.abs(cback.data - rho.data)) < 1e-12


def test_criterion_4_named_state_tables():
    with Criterion(4, "named-state correlator tables", 10.0):
        tol = 1e-12
        # cat pair on sites (0, 1) times a down spin on site 2
        psi = np.zeros(8, dtype=complex)
        psi[0b100] = 1.0
        psi[0b111] = 1.0
        va = extract_correlators(states.pure_state(3, psi))
        expected_a = {
            "x0 x1": 1.0, "y0 y1": -1.0, "z0 z1": 1.0, "z2": -1.0,
            "x0 x1 z2": -1.0, "y0 y1 z2": 1.0, "z0 z1 z2": -1.0,
        }
        for label, val in expected_a.items():
            assert abs(va.value(label) - val) < tol
        assert sum(abs(x) > tol for x in va.values[1:]) == len(expected_a)
        for axes in (("x", "x", "z"), ("y", "y", "z"), ("z", "z", "z")):
            assert abs(connected_triple(va, (0, 1, 2), axes)) < tol

        vb = extract_correlators(states.ghz_state(3))
        expected_b = {
            "z0 z1": 1.0, "z0 z2": 1.0, "z1 z2": 1.0, "x0 x1 x2": 1.0,
            "x0 y1 y2": -1.0, "y0 x1 y2": -1.0, "y0 y1 x2": -1.0,
        }
        for label, val in expected_b.items():
            assert abs(vb.value(label) - val) < tol
        assert sum(abs(x) > tol for x in vb.values[1:]) == len(expected_b)
        assert abs(connected_triple(vb, (0, 1, 2), ("x", "x", "x")) - 1.0) < tol

        vc = extract_correlators(states.w_state(3))
        third = 1.0 / 3.0
        for i in range(3):
            assert abs(vc.value(f"z{i}") + third) < tol
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(vc.value(f"z{i} z{j}") + third) < tol
            assert abs(vc.value(f"x{i} x{j}") - 2 * third) < tol
            assert abs(vc.value(f"y{i} y{j}") - 2 * third) < tol
        assert abs(vc.value("z0 z1 z2") - 1.0) < tol
        # the mixed xx.z / yy.z triples carry a minus sign (two flipped sites
        # always leave the z site down); magnitude 2/3
        for i, j, ell in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            for axis in ("x", "y"):
                label = " ".join(
                    sorted([f"{axis}{i}", f"{axis}{j}", f"z{ell}"], key=lambda s: s[1])
                )
                assert abs(vc.value(label) + 2 * third) < tol
        assert sum(abs(x) > tol for x in vc.values[1:]) == 19

        vm = extract_correlators(up_right_mixture())
        assert abs(connected_pair(vm, 0, 1, "x", "x") - 0.25) < tol
        assert abs(connected_pair(vm, 0, 1, "z", "z") - 0.25) < tol
        assert abs(connected_pair(vm, 0, 1, "x", "z") + 0.25) < tol
        assert abs(connected_pair(vm, 0, 1, "z", "x") + 0.25) < tol


def test_criterion_5_generator_vs_oracle():
    with Criterion(5, "hierarchy evolution matches exact evolution", 300.0):
        rng = np.random.default_rng(99)
        worst = {"rk4": 0.0, "expm": 0.0}
        for n in (2, 3, 4):
            for _ in range(20):
                h = random_hamiltonian(n, rng, 0.8, 0.5)
                gen = build_generator(h)
                assert antisymmetry_defect(gen) < 1e-12
                rho0 = random_mixed_state(rng, n)
                x0 = extract_correlators(rho0)
                ref = None
                for method in ("rk4", "expm"):
                    traj = evolve(
                        gen, x0, 10.0, dt=0.005, stride=200, method=method
                    )
                    if ref is None:
                        ref = oracle.correlator_trajectory(h, rho0, traj.times)
                    err = float(np.max(np.abs(traj.values - ref.values)))
                    worst[method] = max(worst[method], err)
        assert worst["rk4"] < 1e-6 and worst["expm"] < 1e-6, worst


def test_criterion_6_two_qubit_block_match():
    with Criterion(6, "two-qubit generator blocks", 10.0):
        rng = np.random.default_rng(123)
        split = split_sectors(2, 0b01)
        for _ in range(20):
            h1, h2 = rng.normal(size=3), rng.normal(size=3)
            vdiag = np.diag(rng.normal(size=3))
            gen = build_generator(SpinHamiltonian(2, [h1, h2], {(0, 1): vdiag}))
            bs = block_structure(gen, split)
            l1, l2 = cross_matrix(h1), cross_matrix(h2)
            lp = np.kron(l1, np.eye(3)) + np.kron(np.eye(3), l2)
            u1p = np.einsum("mln,lb->mnb", EPS, vdiag).reshape(3, 9)
            u2p = np.einsum("ng,agb->anb", vdiag, EPS).reshape(3, 9)
            for name, got, want in (
                ("l1", bs["1", "1"], l1),
                ("l2", bs["2", "2"], l2),
                ("lp", bs["m", "m"], lp),
                ("u1p", bs["1", "m"], u1p),
                ("u2p", bs["2", "m"], u2p),
                ("up1", bs["m", "1"], -u1p.T),
                ("up2", bs["m", "2"], -u2p.T),
            ):
                assert np.max(np.abs(got - want)) < 1e-12, name


def test_criterion_7_spectral_match():
    with Criterion(7, "frequencies equal level differences", 60.0):
        rng = np.random.default_rng(321)
        for n in (2, 3, 4):
            for _ in range(5):
                h = random_hamiltonian(n, rng)
                rep = spectrum(build_generator(h))
                freqs = np.repeat(rep.frequencies, rep.multiplicities)
                diffs = oracle.energy_differences(oracle.eigensystem(h))
                assert freqs.size == diffs.size
                assert np.max(np.abs(freqs - diffs)) < 1e-9
                assert rep.kernel_dim >= 2**n - 1
        d1, d2, w = 0.8, 0.6, 1.0
        rep = spectrum(build_generator(transverse_pair(d1, d2, w)))
        e1, e2 = ts.epsilons(ts.TwoSpinParams(d1, d2, w))
        assert abs(e1 - 0.5 * np.sqrt(2.96)) < 1e-14
        assert abs(e2 - 0.5 * np.sqrt(1.04)) < 1e-14
        expected = np.sort([e1 - e2, e1 + e2, 2 * e1, 2 * e2])
        assert np.max(np.abs(rep.frequencies - expected)) < 1e-9


def test_criterion_8_two_spin_golden_blocks():
    with Criterion(8, "closed-form two-spin propagators (sign-corrected reflection)", 60.0):
        rng = np.random.default_rng(777)
        for _ in range(50):
            p = ts.TwoSpinParams(*rng.uniform(0.2, 1.5, size=3))
            gen = build_generator(transverse_pair(p.delta1, p.delta2, p.omega))
            order = split_sectors(2, 0b01).order
            for z in sample_z(rng, p, 20):
                num = split_blocks(resolvent(gen, z)[np.ix_(order, order)])
                scale = max(np.max(np.abs(b)) for b in num.values())
                ana = {
                    "g11": ts.g11(p, z), "g12": ts.g12(p, z), "g21": ts.g21(p, z),
                    "g22": ts.g22(p, z), "g1p": ts.g1p(p, z), "g2p": ts.g2p(p, z),
                    "gp1": ts.gp1(p, z), "gp2": ts.gp2(p, z), "gpp": ts.gpp(p, z),
                }
                for key, block in ana.items():
                    assert np.max(np.abs(block - num[key])) < 1e-10 * scale, key
                # swap symmetry and the reflection identity; the reflection
                # carries an odd sign, gp1(z) = -g1p(-z)^T, documented as a
                # correction to the stated transpose identity
                swapped = ts.TwoSpinParams(p.delta2, p.delta1, p.omega)
                assert np.max(np.abs(ts.g22(p, z) - ts.g11(swapped, z))) < 1e-12
                assert np.max(np.abs(ts.gp1(p, z) + ts.g1p(p, -z).T)) < 1e-12
                assert np.max(np.abs(num["gp1"] + split_blocks(
                    resolvent(gen, -z)[np.ix_(order, order)])["g1p"].T)) < 1e-10 * scale


def test_criterion_9_reduced_eom_convergence():
    with Criterion(9, "reduced equation of motion residual is O(dt^2)", 60.0):
        rng = np.random.default_rng(42)
        h = random_hamiltonian(3, rng, 0.8, 0.6)
        rho0 = random_mixed_state(rng, 3)
        for subset in (0b001, 0b011):
            res = {}
            for dt in (2e-3, 1e-3):
                times = np.arange(9) * dt
                rhos = oracle.evolve_exact(h, rho0, times)
                res[dt] = reduced_eom_residual(h, times, rhos, subset)
            order = float(np.log2(res[2e-3] / res[1e-3]))
            assert order >= 1.9, (subset, order, res)


def test_criterion_10_dyson_series():
    with Criterion(10, "weak-coupling perturbative resolvent", 30.0):
        rng = np.random.default_rng(2718)
        h = weak_coupling_hamiltonian(rng, 3, 0.01)
        gen = build_generator(h)
        split = split_sectors(3, 0b001)
        order = split.order
        probes = [complex(re, im) for re, im in rng.uniform(0.6, 1.6, size=(10, 2))]
        for z in probes:
            approx = dyson_series(gen, split, z, 4)
            exact = resolvent(gen, z)[np.ix_(order, order)]
            rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
            assert rel < 1e-8, (z, rel)
