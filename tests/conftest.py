import numpy as np
import pytest

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid
from cerenkov_fiber.spectra import FiberModel
from cerenkov_fiber.weights import ConeSpec, ShellSpec, cone_weight, shell_weight


@pytest.fixture(scope="session")
def default_ff():
    return FormFactor()


@pytest.fixture(scope="session")
def wide_ff():
    # cutoff above the grid span so rho is nonzero at |k| = 1
    return FormFactor(cutoff=2.0)


@pytest.fixture(scope="session")
def small_grid():
    return build_grid(RadialSpec(0.1, 1.0, 6, "geometric"), AngularSpec(4, 2))


@pytest.fixture(scope="session")
def small_basis(small_grid):
    return build_basis(small_grid, 2)


@pytest.fixture(scope="session")
def small_model(small_grid, small_basis, default_ff):
    return FiberModel(grid=small_grid, basis=small_basis, form_factor=default_ff)


@pytest.fixture(scope="session")
def single_mode_setup():
    """One mode at k = (1,0,0): the 2x2 resonant toy model at P = (1.5,0,0)."""
    grid = MomentumGrid.single_mode((1.0, 0.0, 0.0), vol=0.3)
    basis = build_basis(grid, 1)
    ff = FormFactor(cutoff=2.0)
    return grid, basis, ff


def unit_vector(dim, index):
    vec = np.zeros(dim)
    vec[index] = 1.0
    return vec


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def mode_weights(grid, shell: ShellSpec | None = None, cone: ConeSpec | None = None):
    """Per-mode restricted-number weight chi_n(|k|)^2 * xi(khat)^2."""
    w = np.ones(grid.n_modes)
    if shell is not None:
        w = w * shell_weight(shell, grid.magnitudes) ** 2
    if cone is not None:
        w = w * cone_weight(cone, grid.unit_vectors) ** 2
    return w
