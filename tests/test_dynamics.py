import numpy as np
import pytest

from corrdyn import oracle, states
from corrdyn.density import CorrelatorVector, extract_correlators, purity
from corrdyn.dynamics import (
    default_step,
    dyson_series,
    evolve,
    resolvent,
    spectrum,
)
from corrdyn.errors import (
    DivergentSeriesError,
    PoleProximityError,
    SizeCapError,
    StepTooLargeError,
)
from corrdyn.hamiltonian import SpinHamiltonian, transverse_pair
from corrdyn.hierarchy import build_generator, decompose_blocks, largest_coefficient
from corrdyn.hierarchy import norm_bound, split_sectors
from conftest import random_hamiltonian, random_mixed_state


def zero_generator(n):
    return build_generator(SpinHamiltonian(n, np.zeros((n, 3))))


def unit_vector(n, **slots):
    v = np.zeros(4**n)
    v[0] = 1.0
    for code, val in slots.items():
        v[int(code)] = val
    return CorrelatorVector(n, v)


def test_zero_generator_constant_trajectory():
    gen = zero_generator(2)
    x0 = extract_correlators(states.cat_state(2))
    traj = evolve(gen, x0, 3.0, dt=0.1)
    assert np.max(np.abs(traj.values - traj.values[0])) == 0.0


def test_larmor_closed_form():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    x0 = unit_vector(1, **{"1": 1.0})
    traj = evolve(gen, x0, 10.0, dt=0.001, stride=50)
    assert np.max(np.abs(traj.values[:, 1] - np.cos(traj.times))) < 1e-8
    assert np.max(np.abs(traj.values[:, 2] - np.sin(traj.times))) < 1e-8


def test_step_too_large():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 3.0]]))
    x0 = unit_vector(1)
    with pytest.raises(StepTooLargeError, match="step too large"):
        evolve(gen, x0, 1.0, dt=1.0)


@pytest.mark.parametrize("method", ["rk4", "expm"])
@pytest.mark.parametrize(
    "field", [[0.0, 0.0, 3.0], [1.0, 0.0, 1.0]], ids=["one-axis", "two-axes"]
)
def test_step_check_boundaries(assemblies, field, method):
    """dt * ||M||_inf <= 1 passes and just above it raises, also where
    largest_coefficient(h) <= ||M||_inf <= norm_bound(h) cannot decide: along
    one axis the largest coefficient is ||M||_inf, along two it is half of it,
    and norm_bound(h) is ||M||_inf (1 + 1e-12) either way."""
    h = SpinHamiltonian(1, [field])
    norm = build_generator(h).infinity_norm()
    bound, low = norm_bound(h), largest_coefficient(h)
    assert low == (norm if field[0] == 0 else norm / 2)
    x0 = unit_vector(1, **{"1": 1.0})
    # settled by norm_bound: expm assembles only its hM (rk4 multiplies by M
    # below SPLIT_MIN_SITES)
    del assemblies[:]
    dt = 0.9 / bound
    evolve(build_generator(h), x0, 3 * dt, dt=dt, method=method)
    assert [scale for _, scale in assemblies] == ([1.0] if method == "rk4" else [dt])
    # between the bounds: ||M||_inf decides, and admits
    dt = np.nextafter(1.0 / norm, 0.0)
    assert dt * bound > 1.0 >= dt * norm
    evolve(build_generator(h), x0, 3 * dt, dt=dt, method=method)
    # just above 1 / ||M||_inf: refused, by the largest coefficient alone along
    # one axis, so M is never assembled there, and by ||M||_inf along two
    dt = (1.0 / norm) * (1 + 1e-9)
    del assemblies[:]
    with pytest.raises(StepTooLargeError, match="step too large"):
        evolve(build_generator(h), x0, 3 * dt, dt=dt, method=method)
    assert [scale for _, scale in assemblies] == ([] if field[0] == 0 else [1.0])


def test_six_site_rk4_evolve_never_assembles_m(rng, assemblies):
    h = random_hamiltonian(6, rng, 0.8, 0.6)
    gen = build_generator(h)
    x0 = extract_correlators(random_mixed_state(rng, 6))
    traj = evolve(gen, x0, 0.003, dt=0.001, method="rk4")
    assert traj.times.size == 4
    # the half split assembles the two halves and V, never M itself
    assert len(assemblies) == 3 and all(ham is not h for ham, _ in assemblies)


def test_expm_on_one_interval_length_assembles_only_hm(rng, assemblies):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    x0 = extract_correlators(random_mixed_state(rng, 3))
    direct = evolve(gen, x0, 0.3, dt=0.01, stride=10, method="expm")
    assert [(ham is h, scale) for ham, scale in assemblies] == [(True, 10 * 0.01)]
    gen.matrix  # once M is built, the plan copies its values
    copied = evolve(gen, x0, 0.3, dt=0.01, stride=10, method="expm")
    assert [scale for _, scale in assemblies] == [10 * 0.01, 1.0]
    assert np.array_equal(direct.values, copied.values)


def test_expm_on_two_interval_lengths_assembles_each_hm_once_and_never_m(
    rng, assemblies, monkeypatch
):
    from corrdyn import dynamics

    plans = {}
    real = dynamics._taylor_plan

    def recording_plan(gen, h):
        plans[h] = real(gen, h)
        return plans[h]

    monkeypatch.setattr(dynamics, "_taylor_plan", recording_plan)
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    x0 = extract_correlators(random_mixed_state(rng, 3))
    evolve(gen, x0, 0.3, dt=0.01, stride=7, method="expm")
    # the stride's hM, then the remainder's, each from H
    assert [(ham is h, scale) for ham, scale in assemblies] == [(True, 7 * 0.01), (True, 2 * 0.01)]
    assert sorted(plans) == [2 * 0.01, 7 * 0.01]
    m = build_generator(h).matrix
    for step, plan in plans.items():
        assert np.array_equal(plan.a.indptr, m.indptr)
        assert np.array_equal(plan.a.indices, m.indices)
        assert np.array_equal(plan.a.data.view(np.uint64), (m.data * step).view(np.uint64))


@pytest.mark.parametrize("built", [False, True], ids=["unbuilt", "built"])
@pytest.mark.parametrize("stride", [10, 7], ids=["one-length", "two-lengths"])
@pytest.mark.parametrize("terms", ["none", "one", "many"])
def test_expm_admission_counts_at_least_the_bytes_held(
    rng, monkeypatch, assemblies, terms, stride, built
):
    """_evolution_bytes(h, "expm", L), the estimate admit compares with
    BYTES_CAP, >= the bytes of M, if built, and of every plan array that
    shares no memory with M, so a cap one byte below what the run holds
    refuses it.  The estimate is read directly: with no or one term, the
    samples of any grid outweigh what M and its plans hold, and would
    refuse first."""
    from corrdyn import dynamics, hierarchy

    fields = np.zeros((3, 3))
    fields[1, 2] = 0.7 if terms == "one" else 0.0
    h = random_hamiltonian(3, rng) if terms == "many" else SpinHamiltonian(3, fields)
    gen = build_generator(h)
    held = [gen.matrix.data, gen.matrix.indices, gen.matrix.indptr] if built else []
    plans = []
    real = dynamics._taylor_plan

    def recording_plan(gen, h):
        plans.append(real(gen, h))
        return plans[-1]

    monkeypatch.setattr(dynamics, "_taylor_plan", recording_plan)
    evolve(gen, unit_vector(3, **{"3": 1.0}), 0.3, dt=0.01, stride=stride, method="expm")
    assert len(plans) == (1 if stride == 10 else 2)
    assert [scale for _, scale in assemblies].count(1.0) == built  # M only if built here
    for plan in plans:
        for x in (plan.a.data, plan.a.indices, plan.a.indptr):
            if not any(np.shares_memory(x, y) for y in held):
                held.append(x)
    need = sum(x.nbytes for x in held)
    assert hierarchy._evolution_bytes(h, "expm", len(plans)) >= need
    if terms == "many":  # the samples fit under need - 1: admit refuses on M
        monkeypatch.setattr(hierarchy, "BYTES_CAP", need - 1)
        with pytest.raises(SizeCapError, match="^generator capped"):
            hierarchy.admit(3, ["evolve"], h, (0.3, 0.01, stride), "expm")


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan"), float("inf")])
def test_evolve_needs_positive_t_max(t_max):
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    for method in ("rk4", "expm"):
        with pytest.raises(ValueError, match="t_max"):
            evolve(gen, unit_vector(1), t_max, dt=0.1, method=method)


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_evolve_refuses_an_infinite_dt_when_h_has_no_terms(method):
    # neither step bound refuses anything when H = 0
    gen = build_generator(SpinHamiltonian(2, np.zeros((2, 3))))
    with pytest.raises(ValueError, match="dt must be a positive number"):
        evolve(gen, unit_vector(2), 1.0, dt=np.inf, method=method)


def test_default_step_budget():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 3.0]]))
    traj = evolve(gen, unit_vector(1), 1.0, dt=None)
    assert traj.times[1] * gen.infinity_norm() <= 0.1 + 1e-15
    # perfbench's tracer counts a traced rk4 run's steps with default_step
    assert default_step(gen) == traj.times[1]


@pytest.mark.parametrize("method", ["rk4", "expm"])
@pytest.mark.parametrize("stride", [1.5, 2.0, 0, True])
def test_evolve_refuses_a_stride_that_is_not_an_integer_of_at_least_one(method, stride):
    gen = build_generator(SpinHamiltonian(1, [[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="stride must be an integer >= 1"):
        evolve(gen, unit_vector(1, **{"3": 1.0}), 0.03, dt=0.01, stride=stride, method=method)


@pytest.mark.parametrize("method", ["rk4", "expm"])
@pytest.mark.parametrize("arg", ["t_max", "dt"])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy_bool"])
def test_evolve_refuses_a_bool_t_max_or_dt(method, arg, flag):
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 0.1]]))
    times = {"t_max": 0.5, "dt": 0.1, arg: flag}
    with pytest.raises(ValueError, match=f"{arg} must be a positive number"):
        evolve(gen, unit_vector(1), method=method, **times)


@pytest.mark.parametrize("method", ["rk4", "expm"])
def test_evolve_takes_a_numpy_integer_stride(method):
    gen = build_generator(SpinHamiltonian(1, [[1.0, 0.0, 0.0]]))
    x0 = unit_vector(1, **{"3": 1.0})
    traj = evolve(gen, x0, 0.04, dt=0.01, stride=np.int64(2), method=method)
    ref = evolve(gen, x0, 0.04, dt=0.01, stride=2, method=method)
    assert np.array_equal(traj.times, ref.times) and np.array_equal(traj.values, ref.values)


def test_evolve_matches_oracle(rng):
    h = random_hamiltonian(3, rng, 0.8, 0.5)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 3)
    x0 = extract_correlators(rho0)
    traj = evolve(gen, x0, 10.0, dt=0.002, stride=250, method="expm")
    ref = oracle.correlator_trajectory(h, rho0, traj.times)
    assert np.max(np.abs(traj.values - ref.values)) < 1e-6


def test_backends_agree(rng):
    # rk4 applies M through its half split, expm through the assembled CSR M,
    # so this also checks the split against M
    h = random_hamiltonian(4, rng, 0.6, 0.4)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 4)
    x0 = extract_correlators(rho0)
    a = evolve(gen, x0, 4.0, dt=0.001, stride=400, method="rk4")
    b = evolve(gen, x0, 4.0, dt=0.001, stride=400, method="expm")
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_norm_conservation(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    x0 = extract_correlators(random_mixed_state(rng, 3))
    traj = evolve(gen, x0, 5.0, stride=10)  # default step: dt ||M|| = 0.1
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-8 * 5.0
    traj = evolve(gen, x0, 5.0, stride=10, method="expm")
    norms = traj.sector_norms()
    assert np.max(np.abs(norms - norms[0])) < 1e-10 * 5.0


def test_purity_consistency_with_oracle(rng):
    h = random_hamiltonian(3, rng)
    gen = build_generator(h)
    rho0 = random_mixed_state(rng, 3)
    x0 = extract_correlators(rho0)
    traj = evolve(gen, x0, 3.0, dt=0.001, stride=300, method="expm")
    rhos = oracle.evolve_exact(h, rho0, traj.times)
    for k in range(len(traj.times)):
        lhs = (1.0 + np.sum(traj.values[k, 1:] ** 2)) / 2**3
        assert abs(lhs - purity(rhos[k])) < 1e-6


def test_resolvent_of_zero_generator():
    gen = zero_generator(1)
    g = resolvent(gen, 1.0 + 0.0j)
    assert np.max(np.abs(g - np.eye(4))) < 1e-12


def test_resolvent_residual_and_conjugate_symmetry(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    z = 0.8 + 0.3j
    g = resolvent(gen, z)
    a = z * np.eye(gen.dim) - gen.matrix.toarray()
    assert np.max(np.abs(a @ g - np.eye(gen.dim))) < 1e-10
    gbar = resolvent(gen, np.conj(z))
    assert np.max(np.abs(gbar - np.conj(g))) < 1e-10


def test_resolvent_pole_rejection():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    with pytest.raises(PoleProximityError) as err:
        resolvent(gen, 1j)  # exactly on the precession pole
    assert err.value.nearest_pole is not None
    with pytest.raises(PoleProximityError):
        resolvent(gen, 0.0 + 0.0j)  # the kernel pole


def test_resolvent_refuses_z_within_1e_12_of_a_pole():
    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    # the residual certificate fails this close too, so match the distance check
    with pytest.raises(PoleProximityError, match="is within"):
        resolvent(gen, 1e-12 + 1j)


def test_spectrum_of_transverse_pair():
    d1, d2, w = 0.8, 0.6, 1.0
    gen = build_generator(transverse_pair(d1, d2, w))
    rep = spectrum(gen)
    e1 = 0.5 * np.sqrt(w**2 + (d1 + d2) ** 2)
    e2 = 0.5 * np.sqrt(w**2 + (d1 - d2) ** 2)
    expected = np.sort([e1 - e2, 2 * e2, e1 + e2, 2 * e1])
    assert np.max(np.abs(rep.frequencies - expected)) < 1e-10
    assert list(rep.multiplicities) == [2, 1, 2, 1]
    assert rep.kernel_dim == 3
    assert abs(e1 - 0.5 * np.sqrt(2.96)) < 1e-15
    assert abs(e2 - 0.5 * np.sqrt(1.04)) < 1e-15


def test_spectrum_degenerate_free_pair():
    # equal splittings, no coupling: frequencies {delta, 2 delta}, larger kernel
    gen = build_generator(transverse_pair(0.7, 0.7, 0.0))
    rep = spectrum(gen)
    assert np.max(np.abs(rep.frequencies - [0.7, 1.4])) < 1e-12
    assert rep.kernel_dim > 3


def test_spectrum_zero_generator():
    rep = spectrum(zero_generator(1))
    assert rep.frequencies.size == 0
    assert rep.kernel_dim == 3


def test_broadened_density_is_lorentzian_sum(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    rep = spectrum(gen, broadening=0.05)
    assert "density" not in vars(rep)  # computed on first access only
    assert np.all(rep.density >= 0.0)
    lam = np.concatenate([-np.repeat(rep.frequencies, rep.multiplicities),
                          np.zeros(rep.kernel_dim),
                          np.repeat(rep.frequencies, rep.multiplicities)])
    manual = np.zeros_like(rep.omega)
    for w in lam:
        manual += 0.05 / np.pi / ((rep.omega - w) ** 2 + 0.05**2)
    assert np.max(np.abs(manual - rep.density)) < 1e-9


@pytest.mark.parametrize(
    "broadening", [-0.5, 0.0, float("inf"), float("nan"), True, np.True_]
)
def test_spectrum_refuses_a_broadening_that_is_not_finite_and_positive(rng, broadening):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="broadening"):
        spectrum(gen, broadening=broadening)


def test_size_caps(rng):
    h = SpinHamiltonian(7, np.zeros((7, 3)))
    gen = build_generator(h)
    with pytest.raises(SizeCapError):
        resolvent(gen, 1.0 + 1.0j)
    with pytest.raises(SizeCapError):
        spectrum(gen)


def test_dyson_zero_interaction_is_exact(rng):
    h = SpinHamiltonian(3, rng.normal(size=(3, 3)), {(1, 2): rng.normal(size=(3, 3))})
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    z = 0.9 + 0.4j
    approx = dyson_series(gen, split, z, 0)
    order = split.order
    exact = resolvent(gen, z)[np.ix_(order, order)]
    assert np.max(np.abs(approx - exact)) < 1e-10


def test_dyson_mixed_block_inverse_identity(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    split = split_sectors(3, 0b001)
    diag, _ = decompose_blocks(gen, split)
    z = 1.1 + 0.2j
    g1 = np.linalg.inv(z * np.eye(len(diag["1"])) - diag["1"])
    g2 = np.linalg.inv(z * np.eye(len(diag["2"])) - diag["2"])
    gm = np.linalg.inv(z * np.eye(len(diag["m"])) - diag["m"])
    lhs = np.linalg.inv(gm)
    rhs = (
        np.kron(np.linalg.inv(g1), np.eye(len(g2)))
        + np.kron(np.eye(len(g1)), np.linalg.inv(g2))
        - z * np.eye(len(gm))
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def weak_coupling_hamiltonian(rng, n, ratio):
    """Fields with unit max entry, couplings scaled to exactly `ratio`."""
    fields = rng.normal(size=(n, 3))
    fields /= np.max(np.abs(fields))
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            t = rng.normal(size=(3, 3))
            couplings[(i, j)] = ratio * t / np.max(np.abs(t))
    return SpinHamiltonian(n, fields, couplings)


def test_dyson_weak_coupling_accuracy(rng):
    h = weak_coupling_hamiltonian(rng, 3, 0.01)
    gen = build_generator(h)
    split = split_sectors(3, 0b001)
    z = 1.0 + 0.0j
    approx = dyson_series(gen, split, z, 4)
    order = split.order
    exact = resolvent(gen, z)[np.ix_(order, order)]
    rel = np.max(np.abs(approx - exact)) / np.max(np.abs(exact))
    assert rel < 1e-8


def test_dyson_divergence_error(rng):
    h = SpinHamiltonian(
        2, 0.01 * rng.normal(size=(2, 3)), {(0, 1): 5.0 * rng.normal(size=(3, 3))}
    )
    gen = build_generator(h)
    split = split_sectors(2, 0b01)
    with pytest.raises(DivergentSeriesError, match="divergent"):
        dyson_series(gen, split, 0.05 + 0.0j, 4)


def test_dyson_negative_order_raises(rng):
    gen = build_generator(random_hamiltonian(3, rng))
    with pytest.raises(ValueError, match="order"):
        dyson_series(gen, split_sectors(3, 0b001), 1.0 + 0.5j, -1)


@pytest.mark.parametrize("order", [2.5, True], ids=["float", "bool"])
def test_dyson_refuses_an_order_that_is_not_an_integer(rng, order):
    gen = build_generator(random_hamiltonian(3, rng))
    with pytest.raises(ValueError, match="order must be an integer >= 0"):
        dyson_series(gen, split_sectors(3, 0b001), 1.0 + 0.5j, order)


def test_dyson_at_a_pole_of_the_uncoupled_blocks_raises(rng):
    # z = 0 is a pole of every sector block: each system's levels give the
    # zero eigenvalues E_n - E_n
    gen = build_generator(random_hamiltonian(3, rng))
    with pytest.raises(PoleProximityError, match="of the pole") as exc:
        dyson_series(gen, split_sectors(3, 0b001), 0.0 + 0.0j, 4)
    assert exc.value.nearest_pole == 0


@pytest.mark.parametrize(
    "fields, z",
    [([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 0.0j), ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 1j)],
    ids=["zero-H", "field-on-site-0"],
)
def test_dyson_at_an_exact_pole_raises_pole_proximity(fields, z):
    # z is an exact eigenvalue of a sector block of M_0
    gen = build_generator(SpinHamiltonian(2, fields))
    with pytest.raises(PoleProximityError, match="of the pole") as exc:
        dyson_series(gen, split_sectors(2, 0b01), z, 2)
    assert exc.value.nearest_pole == z


def test_resolvent_refuses_empty_codes(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="codes must be nonempty"):
        resolvent(gen, 1.0 + 0.5j, [])


@pytest.mark.parametrize("codes", [[1.5], [True]], ids=["float", "bool"])
def test_resolvent_refuses_codes_that_are_not_integers(rng, codes):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="codes must be integers"):
        resolvent(gen, 1.0 + 0.5j, codes)


def test_resolvent_takes_integer_codes_of_any_width(rng):
    gen = build_generator(random_hamiltonian(2, rng))
    ref = resolvent(gen, 1.0 + 0.5j, [5, 1, 5])
    for dtype in (np.uint8, np.int32, np.int64):
        part = resolvent(gen, 1.0 + 0.5j, np.array([5, 1, 5], dtype=dtype))
        assert np.array_equal(part, ref), dtype


@pytest.mark.parametrize("z", [complex(np.nan, 1.0), complex(0.5, np.inf)])
def test_resolvent_and_dyson_refuse_a_z_that_is_not_finite(rng, z):
    gen = build_generator(random_hamiltonian(2, rng))
    with pytest.raises(ValueError, match="finite"):
        resolvent(gen, z)
    with pytest.raises(ValueError, match="finite"):
        dyson_series(gen, split_sectors(2, 0b01), z, 2)


def test_trajectory_expectation_ladder(rng):
    from corrdyn.pauli import parse_label

    gen = build_generator(SpinHamiltonian(1, [[0.0, 0.0, 1.0]]))
    x0 = unit_vector(1, **{"1": 1.0})
    traj = evolve(gen, x0, 2.0, dt=0.001, stride=100)
    plus = traj.expectation(parse_label("+0", 1))
    expected = (np.cos(traj.times) + 1j * np.sin(traj.times)) / np.sqrt(2)
    assert np.max(np.abs(plus - expected)) < 1e-8
