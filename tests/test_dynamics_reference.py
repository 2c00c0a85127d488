"""The planned exponential-action kernel of `evolve` against per-sample
scipy, and `dyson_series` against the dense-solve Dyson series."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from corrdyn import oracle, states
from corrdyn.density import extract_correlators, from_correlators
from corrdyn.dynamics import _one_norm, _taylor_action, _taylor_plan, dyson_series, evolve
from corrdyn.hamiltonian import SpinHamiltonian
from corrdyn.hierarchy import build_generator, decompose_blocks, split_sectors
from conftest import random_hamiltonian, random_mixed_state
from reference_dynamics import dyson_series_dense, evolve_expm_per_sample
from test_dynamics import weak_coupling_hamiltonian
from test_generator_reference import assert_same_csr, hamiltonians

# condition (3.13) of Al-Mohy & Higham: up to this ||hM||_1 scipy chooses the
# Taylor degree and scaling from the 1-norm alone
_ONE_NORM_RANGE = 63.36


def product_state(n: int, rng: np.random.Generator):
    v = rng.normal(size=(n, 3))
    v *= 0.9 / np.linalg.norm(v, axis=1, keepdims=True)
    return extract_correlators(states.bloch_product(v))


# 30 steps of dt = 0.01: stride 10 divides the step count, stride 7 leaves a
# 2-step remainder interval, stride 1 records every step and stride 50 only
# the end point
@pytest.mark.parametrize("stride", [10, 7, 1, 50])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_expm_is_bit_identical_to_per_sample_scipy(rng, n, stride):
    for name, h in hamiltonians(n, rng).items():
        gen = build_generator(h)
        x0 = product_state(n, rng)
        fast = evolve(gen, x0, 0.3, dt=0.01, stride=stride, method="expm")
        ref = evolve_expm_per_sample(gen, x0, 0.3, 0.01, stride)
        assert np.array_equal(fast.times, ref.times), name
        assert np.array_equal(fast.values, ref.values), name


def test_zero_generator_plans_no_taylor_terms():
    gen = build_generator(SpinHamiltonian(2, np.zeros((2, 3))))
    plan = _taylor_plan(gen, 0.5)
    assert (plan.m_star, plan.s) == (0, 1)


def test_plan_is_chosen_once_per_interval_length(rng, monkeypatch):
    from corrdyn import dynamics

    seen = []
    real = dynamics._taylor_plan

    def recording_plan(gen, h):
        seen.append(h)
        return real(gen, h)

    monkeypatch.setattr(dynamics, "_taylor_plan", recording_plan)
    gen = build_generator(random_hamiltonian(3, rng))
    traj = evolve(gen, product_state(3, rng), 1.0, dt=0.01, stride=7, method="expm")
    assert traj.times.size == 16  # 14 strides of 7 steps and a 2-step remainder
    assert sorted(seen) == [2 * 0.01, 7 * 0.01]


def test_large_step_beyond_the_one_norm_range(rng):
    """h||M||_1 > 63.36: the 1-norm choice takes more terms than scipy's
    power-norm estimates, within the same error bound."""
    h = random_hamiltonian(3, rng, 0.8, 0.6)
    gen = build_generator(h)
    dt = 0.9 / gen.infinity_norm()
    stride = 100
    plan = _taylor_plan(gen, stride * dt)
    assert float(abs(plan.a).sum(axis=0).max()) > _ONE_NORM_RANGE
    x0 = extract_correlators(random_mixed_state(rng, 3))
    traj = evolve(gen, x0, 5 * stride * dt, dt=dt, stride=stride, method="expm")
    assert traj.times.size == 6
    ref = oracle.correlator_trajectory(h, from_correlators(x0), traj.times)
    assert np.max(np.abs(traj.values - ref.values)) <= 1e-10
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) <= 1e-12



@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_norms_equal_scipy_expressions(rng, n):
    """Both norms are read off M's arrays and equal scipy's expressions."""
    cases = hamiltonians(n, rng)
    if n >= 2:
        # all pairs coupled, and heavy-tailed coefficients whose row sums mix
        # magnitudes far apart
        cases["random"] = random_hamiltonian(n, rng)
        cauchy = {(i, j): rng.standard_cauchy((3, 3)) for i in range(n) for j in range(i + 1, n)}
        cases["cauchy"] = SpinHamiltonian(n, rng.standard_cauchy((n, 3)), cauchy)
    for name, h in cases.items():
        gen = build_generator(h)
        m = gen.matrix
        assert gen.infinity_norm() == float(abs(m).sum(axis=1).max()), name
        for step in (1e-3, 0.37, 5.0):
            plan = _taylor_plan(gen, step)
            assert_same_csr(plan.a, m * step)
            assert np.shares_memory(plan.a.indptr, m.indptr)
            assert m.nnz == 0 or np.shares_memory(plan.a.indices, m.indices)
            assert _one_norm(plan.a) == float(abs(m * step).sum(axis=0).max()), name


# ||hM||_1 targets whose plans take one (up to 9), two (15), five (40) and
# seven (63) sub-steps, all inside the range where scipy picks its plan from
# the 1-norm alone
_SCALED_NORMS = (0.05, 2.0, 9.0, 15.0, 40.0, 63.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_taylor_action_is_bit_identical_to_scipy(rng, n):
    gen = build_generator(random_hamiltonian(n, rng, 0.8, 0.6))
    m = gen.matrix
    norm = _one_norm(m)
    x = product_state(n, rng).values
    covered = set()
    for target in _SCALED_NORMS:
        h = target / norm
        plan = _taylor_plan(gen, h)
        assert _one_norm(plan.a) <= _ONE_NORM_RANGE
        covered.add(plan.s)
        assert np.array_equal(_taylor_action(plan, x), spla.expm_multiply(m * h, x)), target
    assert {1, 2} <= covered and max(covered) >= 3, covered


@pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
def test_taylor_action_leaves_its_input_unchanged(rng, zero):
    h = SpinHamiltonian(3, np.zeros((3, 3))) if zero else random_hamiltonian(3, rng)
    plan = _taylor_plan(build_generator(h), 0.7)
    x = product_state(3, rng).values
    before = x.copy()
    f = _taylor_action(plan, x)
    assert np.array_equal(x, before)
    assert not np.shares_memory(f, x)


@pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
def test_evolve_rows_are_not_views_of_each_other(rng, zero):
    h = SpinHamiltonian(3, np.zeros((3, 3))) if zero else random_hamiltonian(3, rng)
    x0 = product_state(3, rng)
    rows = evolve(build_generator(h), x0, 0.3, dt=0.01, stride=7, method="expm").values
    assert rows.shape[0] == 6
    assert not np.shares_memory(rows, x0.values)
    assert not any(
        np.shares_memory(rows[i], rows[j]) for i in range(len(rows)) for j in range(i)
    )


def test_expm_leaves_the_generator_arrays_unchanged(rng):
    gen = build_generator(random_hamiltonian(5, rng))
    m = gen.matrix
    before = [a.copy() for a in (m.indptr, m.indices, m.data)]
    evolve(gen, product_state(5, rng), 0.3, dt=0.01, stride=7, method="expm")
    after = (gen.matrix.indptr, gen.matrix.indices, gen.matrix.data)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


# every nonempty proper system-1 mask at 2..4 sites
DYSON_MASKS = [(n, mask) for n in range(2, 5) for mask in range(1, (1 << n) - 1)]


@pytest.mark.parametrize(
    "n, system1", DYSON_MASKS, ids=[f"{n}-{m:0{n}b}" for n, m in DYSON_MASKS]
)
def test_dyson_series_matches_the_dense_solve_series(rng, n, system1):
    # couplings up to 0.2 against unit fields, and z at distance 1 from every
    # pole on the imaginary axis: ||V G0|| < 1 and order 4 still counts
    gen = build_generator(weak_coupling_hamiltonian(rng, n, 0.2))
    split = split_sectors(n, system1)
    diag, inter = decompose_blocks(gen, split)
    z = 1.0 + 0.5j
    for order in range(5):
        ref = dyson_series_dense(diag, inter, z, order)
        rel = np.max(np.abs(dyson_series(gen, split, z, order) - ref)) / np.max(np.abs(ref))
        assert rel < 1e-12, (order, rel)


def _sparse_hamiltonian(n: int, rng: np.random.Generator) -> SpinHamiltonian:
    """Gaussian fields and couplings at a random scale, each entry zero with
    probability 1/2 and each pair coupled with probability 1/2."""
    scale = 10.0 ** rng.uniform(-2, 2)
    fields = scale * rng.normal(size=(n, 3)) * (rng.random((n, 3)) < 0.5)
    couplings = {
        (i, j): scale * rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5)
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
    }
    return SpinHamiltonian(n, fields, couplings)


@pytest.mark.parametrize("n", range(1, 6))
def test_expm_work_estimate_bounds_the_planned_matvecs(rng, monkeypatch, n):
    """norm_bound(h) >= ||M||_inf and ||M||_1, so hierarchy.admit's expm
    work, counted in closed form before M exists, is at least the work of
    the plans evolve then builds: a cap one below the planned work refuses
    the run.  With a single field component the bound is attained and a cap
    equal to the planned work admits it."""
    from corrdyn import hierarchy
    from corrdyn.errors import SizeCapError
    from corrdyn.hierarchy import admit, generator_nnz, norm_bound

    single = []
    for _ in range(3):
        fields = np.zeros((n, 3))
        fields[rng.integers(n), rng.integers(3)] = 10.0 ** rng.uniform(-2, 2)
        single.append(SpinHamiltonian(n, fields))
    for case in range(60):
        h = single[case] if case < len(single) else _sparse_hamiltonian(n, rng)
        gen = build_generator(h)
        assert norm_bound(h) >= gen.infinity_norm()
        assert norm_bound(h) >= _one_norm(gen.matrix)
        dt = 10.0 ** rng.uniform(-3, -0.5)
        t_max, stride = dt * rng.integers(1, 200), int(rng.integers(1, 60))
        grid = (t_max, dt, stride)
        counts = admit(n, ["evolve"], h, grid, "expm")
        plans = [(k, _taylor_plan(gen, length * dt)) for length, k in counts.items()]
        matvecs = sum(k * plan.m_star * plan.s for k, plan in plans)
        work = matvecs * (generator_nnz(h) + hierarchy.MATVEC_OVERHEAD)
        monkeypatch.setattr(hierarchy, "WORK_CAP", work - 1)
        with pytest.raises(SizeCapError, match="run time capped"):
            admit(n, ["evolve"], h, grid, "expm")
        if case < len(single):
            monkeypatch.setattr(hierarchy, "WORK_CAP", work)
            assert admit(n, ["evolve"], h, grid, "expm") == counts
        monkeypatch.undo()
