"""corrdyn: correlator-hierarchy dynamics of coupled spin-1/2 systems.

The package decomposes density matrices into zero-trace correlated and
cumulant components, builds the sparse linear generator of the full
Pauli-correlator hierarchy, evolves it in time, and analyzes its resolvent
and spectral structure, all cross-checked against a dense exact-evolution
oracle.
"""

__version__ = "0.1.0"

from .combinatorics import enumerate_partitions, enumerate_subsets
from .decomposition import (
    connected_pair,
    connected_triple,
    correlated_part,
    correlated_parts,
    cumulant_part,
    cumulant_parts,
    cumulant_reconstruct,
    reconstruct,
)
from .density import (
    CorrelatorVector,
    DensityMatrix,
    extract_correlators,
    from_correlators,
    partial_trace,
    purity,
    purity_from_correlators,
)
from .dynamics import (
    SpectralReport,
    Trajectory,
    dyson_series,
    evolve,
    resolvent,
    spectrum,
)
from .hamiltonian import SpinHamiltonian, transverse_pair
from .hierarchy import (
    CoupledSplit,
    Generator,
    antisymmetry_defect,
    block_structure,
    build_generator,
    decompose_blocks,
    reduced_eom_residual,
    split_sectors,
)
from .oracle import EigenSystem, build_hamiltonian_matrix, eigensystem, evolve_exact
from .pauli import Observable, PauliString, epsilon, multiply, parse_label

__all__ = [
    "CorrelatorVector",
    "CoupledSplit",
    "DensityMatrix",
    "EigenSystem",
    "Generator",
    "Observable",
    "PauliString",
    "SpectralReport",
    "SpinHamiltonian",
    "Trajectory",
    "antisymmetry_defect",
    "block_structure",
    "build_generator",
    "build_hamiltonian_matrix",
    "connected_pair",
    "connected_triple",
    "correlated_part",
    "correlated_parts",
    "cumulant_part",
    "cumulant_parts",
    "cumulant_reconstruct",
    "decompose_blocks",
    "dyson_series",
    "eigensystem",
    "enumerate_partitions",
    "enumerate_subsets",
    "epsilon",
    "evolve",
    "evolve_exact",
    "extract_correlators",
    "from_correlators",
    "multiply",
    "parse_label",
    "partial_trace",
    "purity",
    "purity_from_correlators",
    "reconstruct",
    "reduced_eom_residual",
    "resolvent",
    "split_sectors",
    "spectrum",
    "transverse_pair",
]
