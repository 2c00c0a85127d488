"""The eigenbasis spectrum and resolvent against dense linear algebra on M.

`dense_eigenvalues` diagonalizes the Hermitian matrix i M of the nonidentity
sector and `dense_resolvent` solves (z I - M) G = I over all 4**N slots.
Both work on the hierarchy generator alone and share nothing with the
Hamiltonian eigensystem that `corrdyn.dynamics` uses, so they are the slow
path the fast one is checked against at small N.
"""

import numpy as np
import pytest

from corrdyn import cli, dynamics
from corrdyn.dynamics import eigenpair_residual, resolvent, spectrum
from corrdyn.errors import PoleProximityError
from corrdyn.hamiltonian import SpinHamiltonian, random_hamiltonian
from corrdyn.hierarchy import Generator, build_generator


def dense_eigenvalues(gen: Generator) -> np.ndarray:
    return np.linalg.eigvalsh(1j * gen.matrix.toarray()[1:, 1:])


def dense_resolvent(gen: Generator, z: complex) -> np.ndarray:
    a = z * np.eye(gen.dim, dtype=complex) - gen.matrix.toarray()
    return np.linalg.solve(a, np.eye(gen.dim, dtype=complex))


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
    return Generator(gen.n_sites, m, gen.hamiltonian)


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
    for n in (1, 3, 5):
        for name, h in hamiltonians(n, rng).items():
            gen = build_generator(h)
            assert eigenpair_residual(gen) < 1e-12 * max(1.0, gen.infinity_norm()), name


def test_certificates_reject_a_flipped_entry(rng):
    gen = flipped(build_generator(random_hamiltonian(3, rng)))
    assert eigenpair_residual(gen) > 1e-3
    with pytest.raises(PoleProximityError, match="residual"):
        resolvent(gen, 0.5 + 0.5j)


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
