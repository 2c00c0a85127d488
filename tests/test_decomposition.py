import numpy as np
import pytest

from corrdyn import states
from corrdyn.combinatorics import enumerate_subsets
from corrdyn.decomposition import (
    connected_pair,
    connected_triple,
    correlated_part,
    correlated_parts,
    cumulant_part,
    cumulant_parts,
    cumulant_reconstruct,
    max_trace_defect,
    reconstruct,
)
from corrdyn.density import extract_correlators, partial_trace_array
from conftest import random_mixed_state, up_right_mixture
from reference_decomposition import embed_product


def brute_force_correlated(rho, subset):
    """rho^C straight from the defining expansion, solved recursively.

    rbar_A = sum_{B subseteq A} (prod_{j in A minus B} rbar_j) rho^C_B with
    rho^C of the empty set 1 and of single cells 0, so rho^C_A is the reduced
    matrix minus every lower-order term.  Independent of the closed-form sum
    used by the implementation.
    """
    n = rho.n_sites
    red = {m: partial_trace_array(rho.data, n, m) for m in enumerate_subsets((1 << n) - 1) if m}
    memo = {}

    def part(mask):
        if mask.bit_count() < 2:
            return None
        if mask in memo:
            return memo[mask]
        total = np.array(red[mask], dtype=complex, copy=True)
        for sub in enumerate_subsets(mask):
            if sub == mask or sub.bit_count() == 1:
                continue
            factors = [(1 << j, red[1 << j]) for j in range(n) if mask >> j & 1 and not sub >> j & 1]
            if sub:
                factors.append((sub, part(sub)))
            total -= embed_product(factors)[1]
        memo[mask] = total
        return total

    return part(subset)


def test_pair_part_is_reduced_minus_product(rng):
    rho = random_mixed_state(rng, 2)
    part = correlated_part(rho, 0b11)
    r0 = partial_trace_array(rho.data, 2, 0b01)
    r1 = partial_trace_array(rho.data, 2, 0b10)
    assert np.max(np.abs(part - (rho.data - np.kron(r1, r0)))) < 1e-12


def test_correlated_part_rejects_single_cell(rng):
    rho = random_mixed_state(rng, 2)
    with pytest.raises(ValueError, match=">= 2"):
        correlated_part(rho, 0b01)
    with pytest.raises(ValueError, match="empty"):
        cumulant_part(rho, 0)


def test_product_state_has_no_correlated_parts():
    rho = states.bloch_product([[0.3, 0.1, 0.2], [0.0, 0.0, 0.9], [0.5, 0.0, 0.0]])
    for part in correlated_parts(rho).values():
        assert np.max(np.abs(part)) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_correlated_part_matches_brute_force(rng, n):
    rho = random_mixed_state(rng, n)
    full = (1 << n) - 1
    expected = brute_force_correlated(rho, full)
    part = correlated_part(rho, full)
    assert np.max(np.abs(part - expected)) < 1e-12


def test_trace_zero_invariant(rng):
    for n in (2, 3, 4):
        rho = random_mixed_state(rng, n)
        for mask, part in correlated_parts(rho).items():
            assert max_trace_defect({mask: part}) < 1e-12


def test_reconstruction_term_count_and_identity(rng):
    for n in (2, 3, 4, 5):
        rho = random_mixed_state(rng, n)
        parts = correlated_parts(rho)
        assert len(parts) == 2**n - n - 1  # subsets of size >= 2
        singles = {i: partial_trace_array(rho.data, n, 1 << i) for i in range(n)}
        back = reconstruct(n, singles, parts)
        assert np.max(np.abs(back.data - rho.data)) < 1e-12


def test_reconstructions_name_a_missing_subset(rng):
    rho = random_mixed_state(rng, 4)
    singles = {i: partial_trace_array(rho.data, 4, 1 << i) for i in range(4)}
    parts = correlated_parts(rho)
    del parts[0b0011]
    with pytest.raises(ValueError, match=r"missing the correlated part of subset \{0,1\}"):
        reconstruct(4, singles, parts)
    three = cumulant_parts(random_mixed_state(rng, 3))
    with pytest.raises(ValueError, match=r"missing the cumulant part of subset \{3\}"):
        cumulant_reconstruct(4, three)
    cparts = cumulant_parts(rho)
    del cparts[0b1111]
    with pytest.raises(ValueError, match=r"missing the cumulant part of subset \{0,1,2,3\}"):
        cumulant_reconstruct(4, cparts)


def test_reconstructions_refuse_parts_past_the_site_count(rng):
    rho = random_mixed_state(rng, 3)
    cparts = cumulant_parts(rho)
    # a fourth site's part, the empty set and a negative key
    for extra in (0b1000, 0b1001, 0, -1):
        with pytest.raises(ValueError, match="cumulant parts inconsistent with site count"):
            cumulant_reconstruct(3, {**cparts, extra: cparts[1]})
    for extra in (1.5, "1", None):
        with pytest.raises(ValueError, match="cumulant part key must be an integer"):
            cumulant_reconstruct(3, {**cparts, extra: cparts[1]})
    singles = {i: partial_trace_array(rho.data, 3, 1 << i) for i in range(3)}
    parts = correlated_parts(rho)
    # a fourth site's part, a single cell and the empty set
    for extra in (0b1011, 0b100, 0):
        with pytest.raises(ValueError, match="correlated parts inconsistent with site count"):
            reconstruct(3, singles, {**parts, extra: parts[0b11]})
    with pytest.raises(ValueError, match="correlated part key must be an integer"):
        reconstruct(3, singles, {**parts, 3.5: parts[0b11]})


def test_reconstructions_name_a_part_or_reduced_matrix_of_the_wrong_shape(rng):
    rho = random_mixed_state(rng, 3)
    singles = {i: partial_trace_array(rho.data, 3, 1 << i) for i in range(3)}
    parts = correlated_parts(rho)
    for bad in (np.array([0.5, 0.5]), np.eye(4) / 4, np.eye(2)[..., None] / 2):
        with pytest.raises(ValueError, match="the reduced matrix of site 1 is not 2x2"):
            reconstruct(3, {**singles, 1: bad}, parts)
    for bad in (np.zeros((4, 1)), np.zeros((8, 8)), np.zeros(16)):
        with pytest.raises(ValueError, match=r"the correlated part of subset \{0,2\} is not 4x4"):
            reconstruct(3, singles, {**parts, 0b101: bad})
    cparts = cumulant_parts(rho)
    for mask, bad, dim in ((0b010, np.eye(4) / 4, 2), (0b111, np.zeros((8, 4)), 8)):
        sites = ",".join(str(j) for j in range(3) if mask >> j & 1)
        message = rf"the cumulant part of subset \{{{sites}\}} is not {dim}x{dim}"
        with pytest.raises(ValueError, match=message):
            cumulant_reconstruct(3, {**cparts, mask: bad})


def test_max_trace_defect_names_a_part_of_the_wrong_shape(rng):
    parts = correlated_parts(random_mixed_state(rng, 3))
    # a flat 4**k-entry part, a 2x2 one, and a 2-site part of the 3-site size
    for bad in (np.zeros(16), np.eye(2) / 2, np.zeros((8, 8))):
        with pytest.raises(ValueError, match=r"the correlated part of subset \{0,2\} is not 4x4"):
            max_trace_defect({**parts, 0b101: bad})


@pytest.mark.parametrize(
    "key, dim, message",
    [
        (-3, 4, "outside the supported"),
        (True, 2, "mask must be an integer"),
        (3.0, 4, "mask must be an integer"),
        (0b100, 2, r"the correlated part of subset \{2\} has fewer than 2 sites"),
        (0, 1, r"the correlated part of subset \{\} has fewer than 2 sites"),
    ],
    ids=["negative", "bool", "float", "one-site", "empty"],
)
def test_max_trace_defect_refuses_a_key_that_is_not_a_mask_of_two_sites(key, dim, message):
    # each part has the shape its key's bit count would ask for
    with pytest.raises(ValueError, match=message):
        max_trace_defect({key: np.eye(dim)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=repr)
def test_max_trace_defect_names_a_part_that_is_not_finite(rng, bad):
    # max() keeps its running value past a NaN, so a NaN part would read 0.0
    parts = correlated_parts(random_mixed_state(rng, 3))
    part = np.array(parts[0b101], copy=True)
    part[0, 3] = bad  # off every single-cell partial trace
    with pytest.raises(ValueError, match=r"the correlated part of subset \{0,2\} is not finite"):
        max_trace_defect({**parts, 0b101: part})
    with pytest.raises(ValueError, match=r"subset \{0,1\} is not finite"):
        max_trace_defect({0b11: np.full((4, 4), np.nan)})


def test_cumulant_reconstruction(rng):
    for n in (2, 3, 4):
        rho = random_mixed_state(rng, n)
        parts = cumulant_parts(rho)
        back = cumulant_reconstruct(n, parts)
        assert np.max(np.abs(back.data - rho.data)) < 1e-12


def test_single_cell_cumulant_is_reduced_matrix(rng):
    rho = random_mixed_state(rng, 3)
    part = cumulant_part(rho, 0b010)
    assert np.max(np.abs(part - partial_trace_array(rho.data, 3, 0b010))) < 1e-12


def test_cumulant_equals_correlated_through_third_order(rng):
    rho = random_mixed_state(rng, 4)
    parts = correlated_parts(rho)
    cparts = cumulant_parts(rho)
    for mask in parts:
        if mask.bit_count() in (2, 3):
            assert np.max(np.abs(parts[mask] - cparts[mask])) < 1e-12


def test_fourth_order_cumulant_identity(rng):
    # rho^CC of 4 cells = rho^C minus the three pair-pair products
    rho = random_mixed_state(rng, 4)
    parts = correlated_parts(rho)
    cparts = cumulant_parts(rho)
    full = 0b1111
    expected = np.array(parts[full], copy=True)
    for a, b in ((0b0011, 0b1100), (0b1001, 0b0110), (0b0101, 0b1010)):
        expected -= embed_product([(a, parts[a]), (b, parts[b])])[1]
    assert np.max(np.abs(expected - cparts[full])) < 1e-12


def test_w_state_has_genuine_three_point_part():
    v = extract_correlators(states.w_state(3))
    assert abs(connected_triple(v, (0, 1, 2), ("z", "z", "z"))) > 0.1


def test_connected_triple_needs_three_sites_and_axes():
    v = extract_correlators(states.w_state(3))
    for sites, axes in [((0, 1, 2), ("z", "z")), ((0, 1), ("z", "z", "z")),
                        ((0, 1, 1), ("z", "z", "z"))]:
        with pytest.raises(ValueError):
            connected_triple(v, sites, axes)


def test_cat_times_down_has_no_three_point_part():
    psi = np.zeros(8, dtype=complex)
    psi[0b100] = 1.0  # sites 0,1 up, site 2 down
    psi[0b111] = 1.0
    rho = states.pure_state(3, psi)
    v = extract_correlators(rho)
    for axes in (("x", "x", "z"), ("z", "z", "z"), ("y", "y", "z"), ("x", "y", "z")):
        assert abs(connected_triple(v, (0, 1, 2), axes)) < 1e-12
    # while the pair sector is fully entangled
    assert abs(connected_pair(v, 0, 1, "x", "x") - 1.0) < 1e-12


def test_connected_pair_values():
    v = extract_correlators(up_right_mixture())
    assert abs(connected_pair(v, 0, 1, "x", "x") - 0.25) < 1e-12
    assert abs(connected_pair(v, 0, 1, "z", "z") - 0.25) < 1e-12
    assert abs(connected_pair(v, 0, 1, "x", "z") + 0.25) < 1e-12
    assert abs(connected_pair(v, 0, 1, "z", "x") + 0.25) < 1e-12
    with pytest.raises(ValueError, match="distinct"):
        connected_pair(v, 1, 1, "x", "x")
    # the cat state has no single-site polarization, so the zz pair is fully
    # connected
    vc = extract_correlators(states.cat_state(2))
    assert abs(connected_pair(vc, 0, 1, "z", "z") - 1.0) < 1e-12


@pytest.mark.parametrize("site", [True, np.True_, 1.0, "1"], ids=repr)
def test_connected_pair_refuses_a_site_that_is_not_an_integer(site):
    # True would read site 1, 0.667 on a W state, and 1.0 fail in `<<`
    v = extract_correlators(states.w_state(3))
    with pytest.raises(ValueError, match="site must be an integer"):
        connected_pair(v, site, 0, "x", "x")
    assert connected_pair(v, np.int64(1), 0, "x", "x") == connected_pair(v, 1, 0, "x", "x")


def test_connected_pair_product_state():
    v = extract_correlators(states.bloch_product([[0.2, 0.3, 0.4], [0.5, 0.0, 0.5]]))
    for mu in "xyz":
        for nu in "xyz":
            assert abs(connected_pair(v, 0, 1, mu, nu)) < 1e-12


def test_ghz_three_point_connected():
    v = extract_correlators(states.ghz_state(3))
    assert abs(connected_triple(v, (0, 1, 2), ("x", "x", "x")) - 1.0) < 1e-12


@pytest.mark.parametrize("subset", [True, 3.0, np.float64(3.0)], ids=repr)
def test_single_parts_refuse_a_mask_that_is_not_an_integer(subset):
    rho = states.w_state(3)
    for part in (correlated_part, cumulant_part):
        with pytest.raises(ValueError, match="mask must be an integer"):
            part(rho, subset)


def test_single_parts_take_a_numpy_integer_mask(rng):
    rho = random_mixed_state(rng, 3)
    for part in (correlated_part, cumulant_part):
        got = part(rho, np.int64(3))
        assert type(got) is np.ndarray and got.shape == (4, 4)
        assert np.array_equal(got, part(rho, 3))
