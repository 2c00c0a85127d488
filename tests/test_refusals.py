"""Library refusals with no other test: each row is a call and a fragment of
the message of the ValueError it must raise."""

import numpy as np
import pytest

from corrdyn import decomposition, dynamics, oracle, pauli, states
from corrdyn.combinatorics import MAX_BITS, bit_indices
from corrdyn.density import CorrelatorVector, DensityMatrix, partial_trace
from corrdyn.hamiltonian import SpinHamiltonian, transverse_pair
from corrdyn.hierarchy import build_generator, reduced_eom_residual, split_sectors
from corrdyn.pauli import PauliString

_ONE = states.bloch_product([[0.0, 0.0, 1.0]])
_TWO = states.bloch_product([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
_FIELD = [[0.0, 0.0, 1.0]]
_TRAJECTORY = dynamics.Trajectory(2, [0.0], np.eye(16)[:1])


def _reduced_eom_with_subset_zero():
    rhos = [_TWO] * 3
    return reduced_eom_residual(transverse_pair(1.0, 0.7, 0.4), [0.0, 0.1, 0.2], rhos, 0)


def _dyson_with_a_split_of_other_sites():
    gen = build_generator(SpinHamiltonian(2, np.zeros((2, 3))))
    return dynamics.dyson_series(gen, split_sectors(3, 1), 1.0 + 1.0j, 1)


_REFUSALS = {
    "mask past MAX_BITS": (lambda: bit_indices(1 << MAX_BITS), "outside the supported"),
    "correlated part past the sites": (
        lambda: decomposition.correlated_part(_TWO, 0b101), "subset references sites beyond"
    ),
    "cumulant part past the sites": (
        lambda: decomposition.cumulant_part(_TWO, 0b100), "subset references sites beyond"
    ),
    "reconstruct with a single missing": (
        lambda: decomposition.reconstruct(2, {0: _ONE.data}, {}), "one reduced matrix per site"
    ),
    "correlator vector of the wrong length": (
        lambda: CorrelatorVector(1, np.ones(3)), "expected 4 values"
    ),
    "density matrix of the wrong shape": (
        lambda: DensityMatrix(1, np.eye(3) / 3), "expected a 2x2 matrix"
    ),
    "partial trace past the sites": (lambda: partial_trace(_TWO, 0b100), "keep mask references"),
    "trajectory shape": (
        lambda: dynamics.Trajectory(1, [0.0, 0.1], np.zeros((3, 4))), "trajectory shape mismatch"
    ),
    # on 2 sites "z2" of 3 sites would index past the 16 values
    "expectation of an observable of more sites": (
        lambda: _TRAJECTORY.expectation(pauli.parse_label("z2", 3)),
        "observable and trajectory site counts differ",
    ),
    "expectation of an observable of fewer sites": (
        lambda: _TRAJECTORY.expectation(pauli.parse_label("z0", 1)),
        "observable and trajectory site counts differ",
    ),
    "evolve a state of other sites": (
        lambda: dynamics.evolve(build_generator(SpinHamiltonian(1, _FIELD)),
                                CorrelatorVector(2, np.eye(16)[0]), 0.1, 0.01),
        "state and generator site counts differ",
    ),
    "evolve by an unknown method": (
        lambda: dynamics.evolve(build_generator(SpinHamiltonian(1, _FIELD)),
                                CorrelatorVector(1, np.eye(4)[0]), 0.1, 0.01, method="euler"),
        "unknown method 'euler'",
    ),
    "dyson split of other sites": (
        _dyson_with_a_split_of_other_sites, "split and generator site counts differ"
    ),
    "fields of the wrong shape": (
        lambda: SpinHamiltonian(2, np.zeros((3, 3))), r"fields must be \(2, 3\)"
    ),
    "self-coupling": (
        lambda: SpinHamiltonian(2, np.zeros((2, 3)), {(1, 1): np.eye(3)}), "no self-coupling"
    ),
    "coupling pair reversed": (
        lambda: SpinHamiltonian(2, np.zeros((2, 3)), {(1, 0): np.eye(3)}),
        "must satisfy 0 <= i < j < N",
    ),
    "coupling pair past the sites": (
        lambda: SpinHamiltonian(2, np.zeros((2, 3)), {(0, 2): np.eye(3)}),
        "must satisfy 0 <= i < j < N",
    ),
    "coupling tensor not 3x3": (
        lambda: SpinHamiltonian(2, np.zeros((2, 3)), {(0, 1): np.eye(2)}),
        "coupling tensors must be 3x3",
    ),
    "reduced equation of motion on no sites": (_reduced_eom_with_subset_zero, "bad subset"),
    "exact evolution of a state of other sites": (
        lambda: oracle.evolve_exact(SpinHamiltonian(1, _FIELD), _TWO, [0.0]),
        "state and Hamiltonian site counts differ",
    ),
    "string site out of range": (
        lambda: PauliString.from_axes(2, {2: "x"}), "site 2 out of range"
    ),
    "string of a negative site count": (lambda: PauliString(-1, 0), "n_sites must be >= 0"),
    "label of a negative site count": (
        lambda: pauli.parse_label("", -3), "n_sites must be >= 0"
    ),
    "observable of a negative site count": (
        lambda: pauli.Observable(-1, ()), "n_sites must be >= 0"
    ),
    "string with a ladder axis": (lambda: PauliString.from_axes(2, {0: "+"}), "Cartesian only"),
    "product of strings over other sites": (
        lambda: pauli.multiply(PauliString(1, 1), PauliString(2, 1)),
        "same number of sites",
    ),
    "ladder table of a length not a power of 4": (
        lambda: pauli.to_ladder(np.zeros(5)), "length 5 is not a power of 4"
    ),
    "code of a ladder observable": (
        lambda: pauli.parse_label("+0", 1).code, "not a single Cartesian string"
    ),
    "pure state of the wrong length": (
        lambda: states.pure_state(1, [1.0, 0.0, 0.0]), "expected 2 amplitudes"
    ),
    "cat state of no sites": (lambda: states.cat_state(0), "at least one site"),
    "w state of no sites": (lambda: states.w_state(0), "at least one site"),
    "bloch vector of two components": (
        lambda: states.bloch_product([[0.0, 1.0]]), "must have 3 components"
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_library_refusal(case):
    call, fragment = _REFUSALS[case]
    with pytest.raises(ValueError, match=fragment):
        call()
