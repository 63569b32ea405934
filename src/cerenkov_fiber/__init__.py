"""Numerical spectral toolkit for a translation-invariant particle-boson model.

The package discretizes boson momentum space, enumerates truncated Fock bases,
assembles fixed-total-momentum ("fiber") Hamiltonians as sparse symmetric
matrices, and evaluates spectral and kinematic diagnostics on the computed
eigenvectors: dispersion scans, gradient cross-checks, restricted boson
numbers, dilation-identity residuals, resonance kinematics, golden-rule decay
rates, and trial-state decay elements.
"""

from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid
from cerenkov_fiber.fock import FockBasis, build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.hamiltonian import build_fiber_hamiltonian
from cerenkov_fiber.spectra import FiberModel

__version__ = "0.1.0"

__all__ = [
    "AngularSpec",
    "FiberModel",
    "FockBasis",
    "FormFactor",
    "MomentumGrid",
    "RadialSpec",
    "build_basis",
    "build_fiber_hamiltonian",
    "build_grid",
]
