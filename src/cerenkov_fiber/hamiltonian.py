"""Assembly of the fiber Hamiltonian and its displacement operator.

All operators are real sparse matrices on the truncated occupation basis.
Off-diagonal blocks are appended in symmetric pairs from a single computed
value, so assembled matrices equal their transposes exactly rather than by
post-hoc symmetrization.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from cerenkov_fiber.fock import FockBasis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import MomentumGrid


@dataclass
class SparseHermitianOperator:
    """Real symmetric sparse operator, exactly symmetric by assembly."""

    matrix: sparse.csr_matrix


@dataclass
class FiberParams:
    """Inputs fixing one fiber Hamiltonian: total momentum, coupling, model."""

    P: np.ndarray
    g: float
    grid: MomentumGrid
    basis: FockBasis
    form_factor: FormFactor

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float).reshape(3)
        if not np.all(np.isfinite(self.P)) or not np.isfinite(self.g):
            raise ValueError("P and g must be finite")


def free_fiber_diagonal(params: FiberParams) -> np.ndarray:
    """Per-state free energy (P - sum n k)^2 / 2 + sum n |k|."""
    diff = params.P[None, :] - params.basis.total_momentum
    return 0.5 * np.einsum("sd,sd->s", diff, diff) + params.basis.free_field_energy


def interaction_coefficients(
    grid: MomentumGrid, form_factor: FormFactor
) -> np.ndarray:
    """Per-mode coefficient sqrt(vol) * rho(|k|) of (b† + b)."""
    return np.sqrt(grid.vol) * form_factor.value(grid.magnitudes)


def build_displacement(
    basis: FockBasis, coefficients: np.ndarray
) -> SparseHermitianOperator:
    """Assemble sum_m c_m (b†_m + b_m); symmetric by paired insertion."""
    rows, cols, modes, amps = basis.transitions()
    data = coefficients[modes] * amps
    keep = data != 0.0
    dim = basis.dimension
    mat = sparse.coo_matrix(
        (
            np.concatenate([data[keep], data[keep]]),
            (
                np.concatenate([rows[keep], cols[keep]]),
                np.concatenate([cols[keep], rows[keep]]),
            ),
        ),
        shape=(dim, dim),
    )
    return SparseHermitianOperator(mat.tocsr())


def displacement_expectation(
    basis: FockBasis, coefficients: np.ndarray, vec: np.ndarray
) -> float:
    """<vec, sum_m c_m (b†_m + b_m) vec> without assembling the matrix."""
    rows, cols, modes, amps = basis.transitions()
    return float(2.0 * np.sum(vec[rows] * vec[cols] * coefficients[modes] * amps))


def build_interaction(params: FiberParams) -> SparseHermitianOperator:
    """The field displacement smeared with the coupling profile."""
    return build_displacement(
        params.basis, interaction_coefficients(params.grid, params.form_factor)
    )


def build_fiber_hamiltonian(params: FiberParams) -> SparseHermitianOperator:
    """Free diagonal plus g times the smeared displacement; exactly symmetric."""
    diag = sparse.diags(free_fiber_diagonal(params), format="csr")
    if params.g == 0.0:
        return SparseHermitianOperator(diag)
    mat = (diag + params.g * build_interaction(params).matrix).tocsr()
    mat.eliminate_zeros()
    return SparseHermitianOperator(mat)
