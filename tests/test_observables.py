import numpy as np
import pytest
from conftest import (
    expect_field_energy,
    expect_field_momentum_sq,
    index_of,
    mode_weights,
    single_mode_grid,
    vacuum_vector,
)

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.observables import expect_field_momentum, expect_number
from cerenkov_fiber.solver import SpectralResult
from cerenkov_fiber.spectra import fh_gradient
from cerenkov_fiber.weights import ConeSpec, ShellSpec


def unit(dim, i):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


@pytest.fixture(scope="module")
def z_mode_basis():
    grid = single_mode_grid((0.0, 0.0, 0.5), vol=0.2)
    return build_basis(grid, 2)


def test_vacuum_expectations(small_basis):
    vac = vacuum_vector(small_basis)
    assert expect_number(vac, np.ones(small_basis.grid.n_modes), small_basis) == 0.0
    assert expect_field_momentum(vac, small_basis) == pytest.approx([0, 0, 0])
    assert expect_field_energy(vac, small_basis) == 0.0
    assert expect_field_momentum_sq(vac, small_basis) == 0.0


def test_single_and_double_occupation(z_mode_basis):
    b = z_mode_basis
    one = unit(b.dimension, index_of(b, (0,)))
    two = unit(b.dimension, index_of(b, (0, 0)))
    assert expect_field_momentum(one, b) == pytest.approx([0, 0, 0.5])
    assert expect_field_energy(one, b) == pytest.approx(0.5)
    assert expect_field_momentum_sq(one, b) == pytest.approx(0.25)
    assert expect_field_momentum(two, b) == pytest.approx([0, 0, 1.0])
    assert expect_field_energy(two, b) == pytest.approx(1.0)
    assert expect_field_momentum_sq(two, b) == pytest.approx(1.0)


def test_number_with_plateau_weights(z_mode_basis):
    b = z_mode_basis
    # |k| = 0.5 sits on the n = 2 plateau; the mode lies on the +z axis
    shell = ShellSpec(2)
    cone = ConeSpec([0, 0, 1.0], "forward", plateau_cos=0.9, support_cos=0.5)
    w = mode_weights(b.grid, shell=shell, cone=cone)
    one = unit(b.dimension, index_of(b, (0,)))
    two = unit(b.dimension, index_of(b, (0, 0)))
    assert expect_number(one, w, b) == pytest.approx(1.0)
    assert expect_number(two, w, b) == pytest.approx(2.0)


def test_restriction_monotonicity(small_basis):
    rng = np.random.default_rng(5)
    psi = rng.normal(size=small_basis.dimension)
    psi /= np.linalg.norm(psi)
    w2 = rng.uniform(0.2, 1.0, small_basis.grid.n_modes)
    w1 = w2 * rng.uniform(0.0, 1.0, small_basis.grid.n_modes)
    assert expect_number(psi, w1, small_basis) <= expect_number(psi, w2, small_basis)


def test_partition_recovers_shell_number(small_basis):
    rng = np.random.default_rng(6)
    psi = rng.normal(size=small_basis.dimension)
    psi /= np.linalg.norm(psi)
    grid = small_basis.grid
    shell = ShellSpec(1)
    cone = ConeSpec([0, 0, 1.0], "forward", plateau_cos=0.7, support_cos=0.2)
    w_fwd = mode_weights(grid, shell=shell, cone=cone)
    chi2 = mode_weights(grid, shell=shell)
    w_comp = chi2 - w_fwd  # complement weight: chi^2 (1 - xi^2)
    total = expect_number(psi, w_fwd, small_basis) + expect_number(
        psi, w_comp, small_basis
    )
    assert total == pytest.approx(expect_number(psi, chi2, small_basis), abs=1e-12)


def test_shell_exhaustion_bounds_total_number():
    # grid confined to [0.15, 1): every mode lies on some plateau n <= 6 and
    # at most two shells overlap anywhere
    from cerenkov_fiber.grids import AngularSpec, RadialSpec, build_grid
    from cerenkov_fiber.weights import shell_weight

    grid = build_grid(RadialSpec(0.15, 0.99, 10, "geometric"), AngularSpec(2, 1))
    basis = build_basis(grid, 2)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=basis.dimension)
    psi /= np.linalg.norm(psi)
    below_one = (grid.magnitudes < 1.0).astype(float)
    total = expect_number(psi, below_one, basis)
    shell_sum = sum(
        expect_number(psi, mode_weights(grid, shell=ShellSpec(n)), basis)
        for n in range(1, 7)
    )
    r = np.linspace(0.15, 0.999, 20_001)
    multiplicity = np.max(
        sum((shell_weight(ShellSpec(n), r) > 0).astype(int) for n in range(1, 7))
    )
    assert multiplicity <= 2
    assert total <= multiplicity * shell_sum + 1e-12


def test_feynman_hellmann_on_vacuum(small_basis):
    vac = vacuum_vector(small_basis)
    result = SpectralResult(np.array([0.125]), vac[:, None], np.zeros(1), "dense")
    grad = fh_gradient(result, (0.5, 0.0, 0.0), small_basis)
    assert grad == pytest.approx([0.5, 0.0, 0.0])


def test_normalization_warning(small_basis):
    with pytest.warns(UserWarning, match="normalizing"):
        val = expect_number(
            2.0 * vacuum_vector(small_basis),
            np.ones(small_basis.grid.n_modes),
            small_basis,
        )
    assert val == 0.0
