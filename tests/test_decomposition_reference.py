"""The correlator-basis decomposition against the matrix-space reference."""

import json
import tracemalloc

import numpy as np
import pytest

import reference_decomposition as ref
from conftest import random_mixed_state, random_pure_state
from corrdyn import cli, decomposition, states
from corrdyn.combinatorics import (
    bell_number,
    bit_indices,
    enumerate_partitions,
    enumerate_subsets,
)
from corrdyn.decomposition import (
    correlated_part,
    correlated_parts,
    cumulant_part,
    cumulant_parts,
    cumulant_reconstruct,
)
from corrdyn.density import extract_correlators, partial_trace_array
from corrdyn.errors import SizeCapError
from corrdyn.pauli import PauliString

TOL = 1e-12


def _bits(a):
    """The bit pattern of every entry, so signed zeros and NaNs compare too."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_max_trace_defect_equals_the_largest_reference_defect(n):
    rng = np.random.default_rng(4500 + n)
    for rho in (random_mixed_state(rng, n), states.w_state(n), states.ghz_state(n)):
        parts = correlated_parts(rho)
        # a part with weight left under a partial trace
        for chosen in (parts, {**parts, (1 << n) - 1: rho.data}):
            expected = max(ref.trace_defect(m, p) for m, p in chosen.items())
            got = decomposition.max_trace_defect(chosen)
            assert _bits(np.float64(got)) == _bits(np.float64(expected))
    assert decomposition.max_trace_defect({}) == 0.0


def test_decomposition_refuses_past_the_work_cap_before_allocating():
    n = 10  # B_10 * 4**10 = 1.2e11 partition-entries
    rho = states.w_state(n)
    calls = [
        lambda: correlated_parts(rho),
        lambda: cumulant_parts(rho),
        lambda: decomposition.reconstruct(n, {}, {}),
        lambda: cumulant_reconstruct(n, {}),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError, match="decomposition of 10 sites capped"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _states(n):
    rng = np.random.default_rng(4100 + n)
    bloch = rng.normal(size=(n, 3))
    bloch *= 0.9 / np.linalg.norm(bloch, axis=1, keepdims=True)
    return {
        "mixed": random_mixed_state(rng, n),
        "pure": random_pure_state(rng, n),
        "product": states.bloch_product(bloch),
        "w": states.w_state(n),
        "ghz": states.ghz_state(n),
        "cat": states.cat_state(n, 0.7),
    }


def _worst(parts, expected):
    assert list(parts) == list(expected)
    return max((np.max(np.abs(parts[m] - expected[m])) for m in parts), default=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_parts_match_reference(n):
    for name, rho in _states(n).items():
        assert _worst(correlated_parts(rho), ref.correlated_parts(rho)) < TOL, name
        assert _worst(cumulant_parts(rho), ref.cumulant_parts(rho)) < TOL, name


@pytest.mark.parametrize("n", range(2, 8))
def test_parts_equal_the_zero_padded_transform_bit_for_bit(n):
    for name, rho in _states(n).items():
        correlated, cumulant = ref.padded_parts(rho)
        for got, want in ((correlated_parts(rho), correlated), (cumulant_parts(rho), cumulant)):
            assert list(got) == list(want), name
            for mask in got:
                assert np.array_equal(_bits(got[mask]), _bits(want[mask])), (name, mask)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_subset_parts_match_reference(n):
    for name, rho in _states(n).items():
        red = ref.reduced_matrices(rho)
        for mask in enumerate_subsets((1 << n) - 1):
            if not mask:
                continue
            expected = ref._cumulant_matrix(mask, red, {})
            assert np.max(np.abs(cumulant_part(rho, mask) - expected)) < TOL, name
            if mask.bit_count() >= 2:
                expected = ref._correlated_matrix(mask, red)
                got = correlated_part(rho, mask)
                assert np.max(np.abs(got - expected)) < TOL, name


def _dyadic_hermitian(rng, dim, trace):
    """A Hermitian matrix of the given trace, every entry a small multiple of 1/8."""
    a = rng.integers(-4, 5, size=(dim, dim)) + 1j * rng.integers(-4, 5, size=(dim, dim))
    h = (a + a.conj().T) / 8
    h[-1, -1] += trace - np.trace(h).real
    return h


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reconstruct_matches_the_reference_sum_bit_for_bit(n):
    # on dyadic inputs every product and sum of either order is exact, so the
    # recursion and the term-by-term reference must agree to the last bit
    rng = np.random.default_rng(4600 + n)
    for _ in range(3):
        singles = {i: _dyadic_hermitian(rng, 2, 1.0) for i in range(n)}
        parts = {
            m: _dyadic_hermitian(rng, 2 ** m.bit_count(), 0.0)
            for m in enumerate_subsets((1 << n) - 1)
            if m.bit_count() >= 2
        }
        got = decomposition.reconstruct(n, singles, parts).data
        expected = ref.reconstruct(n, singles, parts).data
        assert np.array_equal(_bits(got), _bits(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reconstruct_matches_the_reference_sum_to_1e_14(n):
    # the mixed state's reduced matrices are complex, so it also tells a
    # reduced matrix from its transpose; the named states' are real symmetric
    rng = np.random.default_rng(4600 + n)
    cases = {
        "w": states.w_state(n),
        "ghz": states.ghz_state(n),
        "cat": states.cat_state(n, 0.7),
        "mixed": random_mixed_state(rng, n),
    }
    for name, rho in cases.items():
        singles = {i: partial_trace_array(rho.data, n, 1 << i) for i in range(n)}
        parts = correlated_parts(rho)
        got = decomposition.reconstruct(n, singles, parts).data
        expected = ref.reconstruct(n, singles, parts).data
        assert np.max(np.abs(got - expected)) < 1e-14, name


def test_reconstruct_never_holds_a_buffer_of_5_to_the_n_entries():
    # the recursion holds a few arrays of 4**N entries at once; summing the
    # power set breadth-first would hold 5**N
    n = 7
    rho = states.w_state(n)
    singles = {i: partial_trace_array(rho.data, n, 1 << i) for i in range(n)}
    parts = correlated_parts(rho)
    tracemalloc.start()
    try:
        decomposition.reconstruct(n, singles, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 5**n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_staged_cumulant_reconstruct_matches_per_term_sum(n):
    for name, rho in _states(n).items():
        parts = cumulant_parts(rho)
        got = cumulant_reconstruct(n, parts).data
        assert np.max(np.abs(got - ref.cumulant_reconstruct(n, parts).data)) < TOL, name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cumulant_reconstruct_forms_one_full_size_product_per_first_block(monkeypatch, n):
    converted = []
    pair_digits = decomposition._pair_digits
    parts = cumulant_parts(states.w_state(n))
    masks = {id(p): mask for mask, p in parts.items()}

    def counting(mat):
        converted.append(masks[id(mat)])
        return pair_digits(mat)

    monkeypatch.setattr(decomposition, "_pair_digits", counting)
    cumulant_reconstruct(n, parts)
    # every part enters the pair-digit layout exactly once
    assert sorted(converted) == list(range(1, 2**n))
    # the first blocks, which hold site 0, enter last: one full-size
    # product each, after every tail was formed
    heads = converted[2 ** (n - 1) - 1 :]
    assert heads == sorted(heads) and all(a & 1 for a in heads)


def test_cumulant_reconstruct_never_holds_every_part_in_the_pair_layout():
    # the tails' grids and the first blocks' sums hold 5**(N-1) entries
    # each, next to a few arrays of 4**N; converting every part up front
    # adds the first blocks' 4 * 5**(N-1) and peaks at 2.8 MB, past the bound
    n = 7
    parts = cumulant_parts(states.w_state(n))
    tracemalloc.start()
    try:
        cumulant_reconstruct(n, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 5**n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_trace_defect_equals_the_per_cell_partial_trace_loop(n):
    rng = np.random.default_rng(4200 + n)
    for rho in (random_mixed_state(rng, n), states.w_state(n), states.ghz_state(n)):
        for mask, part in correlated_parts(rho).items():
            assert decomposition.max_trace_defect({mask: part}) == ref.trace_defect(mask, part)
        # a part with weight left under a partial trace
        full = (1 << n) - 1
        got = decomposition.max_trace_defect({full: rho.data})
        assert got == ref.trace_defect(full, rho.data) > 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_cumulant_reconstruct_sums_every_partition_once(monkeypatch, n):
    yielded = []

    def counting(mask):
        for p in enumerate_partitions(mask):
            yielded.append(p)
            yield p

    parts = cumulant_parts(states.w_state(n))
    monkeypatch.setattr(decomposition, "enumerate_partitions", counting)
    cumulant_reconstruct(n, parts)
    assert len(yielded) == len(set(yielded)) == bell_number(n)


def _decompose(tmp_path, n, state):
    cfg = {
        "sites": n,
        "fields": [[0.0, 0.0, 0.0]] * n,
        "initial_state": state,
        "tasks": ["decompose"],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert cli.run(path, tmp_path / "out") == 0
    return (tmp_path / "out" / "decomposition.txt").read_text().splitlines()


def _report(lines):
    return dict(ln.split("=", 1) for ln in lines if not ln.startswith("subset="))


def test_cli_norms_match_reference(tmp_path):
    product = [[0.3, -0.2, 0.5], [0.0, 0.7, 0.1], [-0.6, 0.0, 0.2], [0.1, 0.1, -0.8]]
    cases = [
        ({"named": {"name": "w"}}, states.w_state(4)),
        ({"named": {"name": "cat", "phase": 1.3}}, states.cat_state(4, 1.3)),
        ({"product": product}, states.bloch_product(product)),
    ]
    for state, rho in cases:
        lines = _decompose(tmp_path, 4, state)
        parts, cparts = ref.correlated_parts(rho), ref.cumulant_parts(rho)
        rows = [ln for ln in lines if ln.startswith("subset=")]
        assert len(rows) == 15
        for row in rows:
            fields = dict(tok.split("=") for tok in row.split())
            mask = sum(1 << int(s) for s in fields["subset"].split(","))
            corr = np.linalg.norm(parts[mask]) if mask in parts else 0.0
            assert abs(float(fields["norm_correlated"]) - corr) < TOL
            assert abs(float(fields["norm_cumulant"]) - np.linalg.norm(cparts[mask])) < TOL
        report = _report(lines)
        assert float(report["reconstruction_error"]) < TOL
        assert float(report["cumulant_reconstruction_error"]) < TOL


def _corrupt_last_entry(fn):
    def corrupted(grid):
        out = fn(grid)
        block = out[max(out)] if isinstance(out, dict) else out
        block.flat[-1] += 1e-6  # the all-z string, support on every site
        return out

    return corrupted


@pytest.mark.parametrize(
    "target, key",
    [("_correlated_grid", "reconstruction_error"),
     ("_cumulant_blocks", "cumulant_reconstruction_error")],
)
def test_matrix_checks_catch_one_corrupted_coefficient(tmp_path, monkeypatch, target, key):
    clean = _report(_decompose(tmp_path, 3, {"named": {"name": "w"}}))
    assert float(clean[key]) < TOL
    monkeypatch.setattr(decomposition, target, _corrupt_last_entry(getattr(decomposition, target)))
    report = _report(_decompose(tmp_path, 3, {"named": {"name": "w"}}))
    assert float(report[key]) > TOL


def test_connected_correlators_are_correlated_coefficients():
    rho = _states(4)["mixed"]
    v = extract_correlators(rho)
    parts = ref.correlated_parts(rho)
    for mask, part in parts.items():
        if mask.bit_count() not in (2, 3):
            continue
        sites = bit_indices(mask)
        for labels in np.ndindex(*(3,) * len(sites)):
            ax = tuple("xyz"[a] for a in labels)
            # the coefficient tr(rho^C P) of the string on the part's own sites
            local = {k: a for k, a in enumerate(ax)}
            p = PauliString.from_axes(len(sites), local).matrix()
            expected = np.trace(part @ p).real
            if len(sites) == 2:
                got = decomposition.connected_pair(v, sites[0], sites[1], *ax)
            else:
                got = decomposition.connected_triple(v, tuple(sites), ax)
            assert abs(got - expected) < TOL, (sites, ax)
