"""The eigenbasis spectrum and resolvent against dense linear algebra on M.

`dense_eigenvalues` diagonalizes the Hermitian matrix i M of the nonidentity
sector and `dense_resolvent` solves (z I - M) G = I over all 4**N slots.
Both work on the hierarchy generator alone and share nothing with the
Hamiltonian eigensystem that `corrdyn.dynamics` uses, so they are the slow
path the fast one is checked against at small N.  `pairwise_eigenpair_residual`
tests every level pair on its own, the exhaustive form of the random-probe
certificate `eigenpair_residual`, and the Kronecker chains of
`reference_pauli` are the slow form of the signed-permutation builder.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from corrdyn import cli, dynamics, oracle
from corrdyn.density import pauli_coefficients
from corrdyn.dynamics import _apply_real, eigenpair_residual, resolvent, spectrum
from corrdyn.errors import PoleProximityError
from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.hierarchy import Generator, build_generator
from corrdyn.pauli import PauliString
from conftest import random_hamiltonian
from reference_pauli import kron_hamiltonian, kron_matrix


def dense_eigenvalues(gen: Generator) -> np.ndarray:
    return np.linalg.eigvalsh(1j * gen.matrix.toarray()[1:, 1:])


def dense_resolvent(gen: Generator, z: complex) -> np.ndarray:
    a = z * np.eye(gen.dim, dtype=complex) - gen.matrix.toarray()
    return np.linalg.solve(a, np.eye(gen.dim, dtype=complex))


def pairwise_eigenpair_residual(gen: Generator) -> float:
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


def heisenberg_chain(n: int) -> SpinHamiltonian:
    fields = np.zeros((n, 3))
    fields[:, 2] = 0.7
    return SpinHamiltonian(n, fields, {(i, i + 1): np.eye(3) for i in range(n - 1)})


def hamiltonians(n: int, rng: np.random.Generator) -> dict[str, SpinHamiltonian]:
    return {
        "dense": random_hamiltonian(n, rng, 0.8, 0.6),
        "heisenberg": heisenberg_chain(n),
        "fields_only": SpinHamiltonian(n, rng.normal(size=(n, 3))),
        "zero": SpinHamiltonian(n, np.zeros((n, 3))),
    }


def flipped(gen: Generator) -> Generator:
    """The generator with the sign of its first nonzero entry flipped."""
    m = gen.matrix.copy()
    m.data[0] = -m.data[0]
    return Generator(gen.hamiltonian, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spectrum_matches_dense_eigensolve(rng, monkeypatch, n):
    for name, h in hamiltonians(n, rng).items():
        gen = build_generator(h)
        fast = spectrum(gen)
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_generator_eigenvalues", dense_eigenvalues)
            slow = spectrum(gen)
        assert fast.kernel_dim == slow.kernel_dim, name
        assert list(fast.multiplicities) == list(slow.multiplicities), name
        a = np.repeat(fast.frequencies, fast.multiplicities)
        b = np.repeat(slow.frequencies, slow.multiplicities)
        assert a.size == b.size, name
        if a.size:
            assert np.max(np.abs(a - b)) < 1e-10 * max(1.0, b.max()), name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_resolvent_matches_dense_solve(rng, n):
    for name, h in hamiltonians(n, rng).items():
        gen = build_generator(h)
        for z in (0.4 + 0.9j, -0.3 - 0.2j):
            slow = dense_resolvent(gen, z)
            assert np.max(np.abs(resolvent(gen, z) - slow)) < 1e-12, name
            codes = [3, 0, gen.dim - 1, 3, 1]
            part = resolvent(gen, z, codes)
            assert part.shape == (5, 5)
            assert np.max(np.abs(part - slow[np.ix_(codes, codes)])) < 1e-12, name


def test_eigenpair_residual_is_machine_level(rng):
    for n in (1, 2, 3, 4, 5):
        for name, h in hamiltonians(n, rng).items():
            gen = build_generator(h)
            bound = 1e-12 * max(1.0, gen.infinity_norm())
            assert eigenpair_residual(gen) < bound, name
            assert pairwise_eigenpair_residual(gen) < bound, name


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_tracks_the_pair_sweep_on_a_small_defect(rng, n):
    h = random_hamiltonian(n, rng, 0.8, 0.6)
    gen = build_generator(h)
    for eps in (1e-6, 1e-9):
        for i, j in ((1, 2), (3, gen.dim - 1), (gen.dim // 2, gen.dim // 3 + 1)):
            d = sp.csr_matrix(([eps, -eps], ([i, j], [j, i])), shape=(gen.dim,) * 2)
            bad = Generator(h, (gen.matrix + d).tocsr())
            ratio = eigenpair_residual(bad) / pairwise_eigenpair_residual(bad)
            assert 0.25 <= ratio <= 4.0, (eps, i, j, ratio)


def test_certificates_reject_a_flipped_entry(rng):
    gen = flipped(build_generator(random_hamiltonian(3, rng)))
    assert eigenpair_residual(gen) > 1e-3
    with pytest.raises(PoleProximityError, match="residual"):
        resolvent(gen, 0.5 + 0.5j)


def test_resolvent_certificate_rejects_a_1e_6_perturbation(rng):
    # G comes from the eigensystem of H, so it misses M's defect by about 1e-6
    gen = build_generator(random_hamiltonian(2, rng))
    d = sp.csr_matrix(([1e-6, -1e-6], ([1, 2], [2, 1])), shape=(gen.dim,) * 2)
    bad = Generator(gen.hamiltonian, (gen.matrix + d).tocsr())
    with pytest.raises(PoleProximityError, match="residual"):
        resolvent(bad, 0.5 + 0.5j)


def test_validate_fails_on_a_flipped_entry(tmp_path, monkeypatch):
    from corrdyn import hierarchy
    from test_cli import write_config

    # the maximally mixed state never moves, so the trajectory matches the
    # oracle to rounding and only the eigenpair certificate sees the defect
    cfg = write_config(
        tmp_path / "c.json", tasks=["validate"], initial_state={"correlators": {}}
    )
    assert cli.run(cfg, tmp_path / "good") == 0
    good = dict(
        ln.split("=", 1) for ln in (tmp_path / "good" / "validate.txt").read_text().splitlines()
    )
    assert good["status"] == "ok" and float(good["eigenpair_residual"]) < 1e-12

    build = hierarchy.build_generator
    monkeypatch.setattr(hierarchy, "build_generator", lambda h: flipped(build(h)))
    assert cli.run(cfg, tmp_path / "bad") == 0
    bad = dict(
        ln.split("=", 1) for ln in (tmp_path / "bad" / "validate.txt").read_text().splitlines()
    )
    assert float(bad["max_abs_deviation"]) < 1e-12
    assert float(bad["eigenpair_residual"]) > 1e-3
    assert bad["status"] == "fail"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hamiltonian_builder_matches_kronecker_sum(rng, n):
    for name, h in hamiltonians(n, rng).items():
        assert np.array_equal(oracle.build_hamiltonian_matrix(h), kron_hamiltonian(h)), name


def test_pauli_matrix_matches_kronecker_chain():
    for n in (1, 2, 3):
        for code in range(4**n):
            assert np.array_equal(PauliString(n, code).matrix(), kron_matrix(n, code)), code


def test_density_file_matches_the_eager_loop(tmp_path):
    """density.csv holds the bytes of the loop spectrum() ran on every call."""
    from test_cli import write_config

    cfg = write_config(tmp_path / "c.json", tasks=["spectrum"], spectrum={"broadening": 0.05})
    assert cli.run(cfg, tmp_path / "out") == 0
    gen = build_generator(cli.load_config(cfg).hamiltonian)
    lam = dynamics._generator_eigenvalues(gen)
    omega = np.linspace(0.0, 1.2 * float(np.max(np.abs(lam))), 513)
    density = np.zeros_like(omega)
    for w in lam:
        density += 0.05 / np.pi / ((omega - w) ** 2 + 0.05**2)
    lines = ["omega,density"] + [f"{cli._fmt(w)},{cli._fmt(d)}" for w, d in zip(omega, density)]
    want = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "out" / "density.csv").read_bytes() == want
