import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_pauli as ref
from corrdyn import pauli
from corrdyn.density import _B_BUILD, _B_EXTRACT
from corrdyn.dynamics import Trajectory
from corrdyn.pauli import Observable, PauliString, epsilon, multiply, parse_label


def test_epsilon_convention():
    assert epsilon("x", "y", "z") == 1
    assert epsilon("y", "x", "z") == -1
    assert epsilon("x", "x", "z") == 0
    assert epsilon("z", "x", "y") == 1


def test_epsilon_rejects_ladder_axes():
    with pytest.raises(ValueError, match="Cartesian only"):
        epsilon("+", "y", "z")


def test_epsilon_total_antisymmetry():
    axes = "xyz"
    for a in axes:
        for b in axes:
            for c in axes:
                assert epsilon(a, b, c) == -epsilon(b, a, c)
                assert epsilon(a, b, c) == -epsilon(a, c, b)


def test_single_site_products():
    x = PauliString.from_axes(1, {0: "x"})
    y = PauliString.from_axes(1, {0: "y"})
    phase, res = multiply(x, y)
    assert phase == 1j
    assert res == PauliString.from_axes(1, {0: "z"})

    ident = PauliString(1, 0)
    phase, res = multiply(ident, y)
    assert phase == 1.0 and res == y


def test_involution():
    s = PauliString.from_axes(2, {0: "x", 1: "z"})
    phase, res = multiply(s, s)
    assert phase == 1.0
    assert res == PauliString(2, 0)


@settings(max_examples=60)
@given(st.integers(0, 4**3 - 1), st.integers(0, 4**3 - 1))
def test_multiply_matches_dense_matrices(a_code, b_code):
    a = PauliString(3, a_code)
    b = PauliString(3, b_code)
    phase, res = multiply(a, b)
    assert np.allclose(a.matrix() @ b.matrix(), phase * res.matrix())


def test_multiply_matches_dense_at_four_sites(rng):
    for _ in range(20):
        a = PauliString(4, int(rng.integers(4**4)))
        b = PauliString(4, int(rng.integers(4**4)))
        c = PauliString(4, int(rng.integers(4**4)))
        phase, res = multiply(a, b)
        assert np.allclose(a.matrix() @ b.matrix(), phase * res.matrix())
        p1, ab = multiply(a, b)
        p2, ab_c = multiply(ab, c)
        q1, bc = multiply(b, c)
        q2, a_bc = multiply(a, bc)
        assert ab_c == a_bc and p1 * p2 == q1 * q2


@settings(max_examples=40)
@given(
    st.integers(0, 4**2 - 1), st.integers(0, 4**2 - 1), st.integers(0, 4**2 - 1)
)
def test_multiply_associative_with_phases(ca, cb, cc):
    a, b, c = (PauliString(2, code) for code in (ca, cb, cc))
    p1, ab = multiply(a, b)
    p2, ab_c = multiply(ab, c)
    q1, bc = multiply(b, c)
    q2, a_bc = multiply(a, bc)
    assert ab_c == a_bc
    assert p1 * p2 == q1 * q2


def test_ladder_trace_identity():
    # tr(s^mu_bar s_nu_bar) = 2 delta with lowered = conjugate transpose
    sq = 1 / np.sqrt(2)
    plus = sq * (pauli.PAULI[1] + 1j * pauli.PAULI[2])
    minus = sq * (pauli.PAULI[1] - 1j * pauli.PAULI[2])
    raised = [plus, minus, pauli.PAULI[3]]
    for i, a in enumerate(raised):
        for j, b in enumerate(raised):
            lowered = b.conj().T
            expect = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ lowered) - expect) < 1e-14


def index_of(s: PauliString) -> int:
    """Supervector index of a Cartesian string (the base-4 code itself)."""
    return s.code


def string_of(code: int, n_sites: int) -> PauliString:
    """Inverse of index_of."""
    return PauliString(n_sites, code)


def test_index_round_trip():
    for code in range(4**2):
        s = string_of(code, 2)
        assert index_of(s) == code
    assert index_of(PauliString(2, 0)) == 0
    assert index_of(PauliString.from_axes(2, {0: "x"})) == 1
    assert index_of(PauliString.from_axes(2, {0: "z", 1: "y"})) == 3 + 2 * 4


def test_label_round_trip():
    s = PauliString.from_axes(3, {0: "x", 2: "z"})
    assert s.label() == "x0 z2"
    obs = parse_label("x0 z2", 3)
    assert obs.is_single_string and obs.code == s.code
    assert parse_label("", 3).code == 0


@pytest.mark.parametrize(
    "code, message",
    [(-1, "out of range"), (16, "out of range"), (1.5, "integer"), (True, "integer")],
)
def test_pauli_string_refuses_a_code_that_is_not_an_integer_in_range(code, message):
    with pytest.raises(ValueError, match=message):
        PauliString(2, code)
    assert PauliString(2, np.int64(15)).code == 15


@given(st.integers(0, 4**3 - 1))
def test_label_parse_round_trip(code):
    s = PauliString(3, code)
    assert parse_label(s.label(), 3).code == code


def test_parse_errors():
    with pytest.raises(ValueError, match="bad axis"):
        parse_label("q0", 2)
    with pytest.raises(ValueError, match="duplicate site 0"):
        parse_label("z0 z0", 2)
    with pytest.raises(ValueError, match="out of range"):
        parse_label("x3", 2)
    with pytest.raises(ValueError, match="site index"):
        parse_label("x", 2)


def test_ladder_label_expansion():
    obs = parse_label("+1", 2)
    terms = dict((c, w) for w, c in obs.terms)
    assert set(terms) == {4, 8}  # x1 and y1 columns
    assert abs(terms[4] - 1 / np.sqrt(2)) < 1e-15
    assert abs(terms[8] - 1j / np.sqrt(2)) < 1e-15
    # expectation against an x-polarized site
    values = np.zeros(16)
    values[0] = 1.0
    values[4] = 1.0
    assert abs(obs.expectation(values) - 1 / np.sqrt(2)) < 1e-15


def test_ladder_table_round_trip(rng):
    values = rng.uniform(-1, 1, size=16)
    values[0] = 1.0
    table = pauli.to_ladder(values)
    back = pauli._apply_site_map(table, np.linalg.inv(pauli._TO_LADDER))
    assert np.max(np.abs(back - values)) < 1e-14
    assert np.max(np.abs(back.imag)) < 1e-14


def test_ladder_single_site_values():
    values = np.array([1.0, 1.0, 0.0, 0.0])  # <x> = 1
    table = pauli.to_ladder(values)
    assert abs(table[1] - 1 / np.sqrt(2)) < 1e-15  # <sigma^+>
    assert abs(table[2] - 1 / np.sqrt(2)) < 1e-15  # <sigma^->
    assert pauli.to_ladder(np.zeros(4))[0] == 0.0


def test_matrix_embedding_site_order():
    # site 0 is the least significant qubit: z0 on two sites is diag(1,-1,1,-1)
    z0 = PauliString.from_axes(2, {0: "z"}).matrix()
    assert np.allclose(np.diag(z0), [1, -1, 1, -1])
    z1 = PauliString.from_axes(2, {1: "z"}).matrix()
    assert np.allclose(np.diag(z1), [1, 1, -1, -1])


@pytest.mark.parametrize("n", [True, 2.0, np.float64(2.0)], ids=repr)
def test_pauli_site_counts_must_be_integers(n):
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        PauliString(n, 1)
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        parse_label("x0", n)
    with pytest.raises(ValueError, match="n_sites must be an integer"):
        Observable(n, ((1.0, 0),))


def test_pauli_site_counts_take_numpy_integers():
    assert np.array_equal(PauliString(np.int64(2), 7).matrix(), PauliString(2, 7).matrix())
    assert parse_label("x0 z1", np.int64(2)).code == parse_label("x0 z1", 2).code


_SITE_MAPS = {"build": _B_BUILD, "extract": _B_EXTRACT, "ladder": pauli._TO_LADDER}


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=str)
@pytest.mark.parametrize("n", range(7))
@pytest.mark.parametrize("name", _SITE_MAPS)
def test_site_map_matches_the_tensordot_path_bit_for_bit(rng, name, n, batch):
    t = _SITE_MAPS[name]
    # each output of the build and extract maps is one rounding of two exact
    # products; the ladder map's 1/sqrt(2) products round too, so the GEMM's
    # order can show, and it is held on the real tables it is given (complex
    # input at N=1 with a batch differed in the last bit)
    values = _complex_normal(rng, (4**n,) + batch)
    if name == "ladder":
        values = values.real
    got = pauli._apply_site_map(values, t)
    # the layout, too: a reduction over the index sums in another order on
    # a transposed view (`np.linalg.norm(axis=0)` in `eigenpair_residual`)
    assert got.shape == values.shape and got.flags.c_contiguous
    assert np.array_equal(_bits(got), _bits(ref.tensordot_site_map(values, t)))


@pytest.mark.parametrize("batch", [(), (5,)], ids=str)
@pytest.mark.parametrize("k", range(2, 8))
def test_trace_free_site_map_matches_the_zero_padded_map_bit_for_bit(rng, k, batch):
    # the real coefficients of parts, as `decomposition._part_matrices` feeds them
    coeffs = rng.normal(size=(3**k,) + batch)
    got = pauli._apply_site_map(coeffs, _B_BUILD[:, 1:])
    assert got.shape == (4**k,) + batch
    assert np.array_equal(_bits(got), _bits(ref.padded_site_map(coeffs, _B_BUILD[:, 1:])))


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("name", [*_SITE_MAPS, "trace-free"])
def test_site_map_equals_the_dense_tensor_power(rng, name, n):
    t = _B_BUILD[:, 1:] if name == "trace-free" else _SITE_MAPS[name]
    values = _complex_normal(rng, (t.shape[1] ** n, 2))
    want = ref.kron_site_map(n, t) @ values
    got = pauli._apply_site_map(values, t)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_trace_free_site_map_refuses_a_length_not_a_power_of_3():
    with pytest.raises(ValueError, match="length 4 is not a power of 3"):
        pauli._apply_site_map(np.zeros(4), _B_BUILD[:, 1:])


@pytest.mark.parametrize("code", [-1, 16, 64])
def test_observable_refuses_a_code_out_of_range(code):
    # on 2 sites code -1 read slot 15, and 64 ended in an IndexError
    trajectory = Trajectory(2, [0.0], np.eye(16)[:1])
    with pytest.raises(ValueError, match=f"code {code} out of range for 2 sites"):
        trajectory.expectation(Observable(2, ((1.0, code),)))


@pytest.mark.parametrize("code", [1.0, True, "1"], ids=repr)
def test_observable_codes_must_be_integers(code):
    with pytest.raises(ValueError, match="code must be an integer"):
        Observable(2, ((1.0, 0), (0.5, code)))


def test_observable_takes_numpy_integers_and_parsed_labels():
    obs = Observable(np.int64(2), ((1.0, np.int64(15)),))
    assert obs.expectation(np.arange(16.0)) == 15.0
    for label in ["", "x0", "+0 -1", "z1 +0", "-0"]:
        assert parse_label(label, 2).n_sites == 2
