import math

import numpy as np
import pytest
from conftest import fit_loglog_slope

from cerenkov_fiber.cerenkov import (
    EmptyWindowError,
    TrialSpec,
    cerenkov_threshold,
    decay_element,
    golden_rule_rate,
    resonance_momentum,
    trial_scaling,
    trial_state,
)
from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import build_interaction
from cerenkov_fiber.smoothing import bump


def test_resonance_forward_at_bare_energy():
    roots = resonance_momentum(2.0, 2.0, 1.0)
    assert roots == pytest.approx([0.0, 2.0])


def test_resonance_threshold_angle_double_root():
    # |P| cos(theta) = 1 at E = P^2/2: double root at the origin
    roots = resonance_momentum(1.5, 1.125, 2.0 / 3.0)
    assert roots == pytest.approx([0.0])


def test_resonance_tangency_at_spectral_bottom():
    # E = |P| - 1/2 with cos(theta) = 1: double root at r = |P| - 1
    # oracle: bisection on the defining polynomial around the minimum
    p, e = 2.0, 1.5
    f = lambda r: 0.5 * r * r + (1.0 - p) * r + (0.5 * p * p - e)
    lo, hi = 0.5, 1.0
    assert f(lo) > 0 and f(1.0) <= 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    left_root = 0.5 * (lo + hi)
    roots = resonance_momentum(p, e, 1.0)
    # bisection at a tangency stalls at the cancellation floor ~ sqrt(eps)
    assert roots[0] == pytest.approx(left_root, abs=1e-7)
    assert roots == pytest.approx([1.0])  # exact double root, reported once


def test_resonance_roots_satisfy_equation():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p = rng.uniform(0.1, 3.0)
        e = rng.uniform(-0.5, 3.0)
        c = rng.uniform(-1.0, 1.0)
        for r in resonance_momentum(p, e, c):
            value = 0.5 * r * r + (1.0 - p * c) * r + (0.5 * p * p - e)
            assert abs(value) < 1e-12


def test_resonance_no_real_roots():
    assert len(resonance_momentum(0.5, -1.0, 0.0)) == 0


def test_threshold_values():
    assert cerenkov_threshold(2.0) == pytest.approx(0.5)
    assert cerenkov_threshold(0.8) is None
    assert cerenkov_threshold(1.0) is None
    with pytest.raises(ValueError):
        cerenkov_threshold(0.0)


def test_golden_rule_below_threshold_zero():
    ff = FormFactor()
    assert golden_rule_rate(np.array([0.9, 0, 0]), 0.1, ff) == 0.0
    assert golden_rule_rate(np.array([0, 0, 1.0]), 0.1, ff) == 0.0


def test_golden_rule_quadratic_in_coupling():
    ff = FormFactor()
    p = np.array([0, 0, 1.5])
    g1 = golden_rule_rate(p, 0.05, ff)
    g2 = golden_rule_rate(p, 0.10, ff)
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)
    assert g1 > 0.0


def test_golden_rule_matches_radial_closed_form():
    # independent reduction: Gamma = (4 pi^2 g^2 / p) * int_0^{2(p-1)} r rho^2 dr
    from scipy.integrate import quad

    ff = FormFactor()
    for p in (1.2, 1.5, 1.9):
        expected = (
            4.0 * math.pi**2 * 0.01 / p
            * quad(lambda r: r * ff.value(r) ** 2, 0.0, min(2 * (p - 1), ff.cutoff))[0]
        )
        assert golden_rule_rate(np.array([0, 0, p]), 0.1, ff) == pytest.approx(
            expected, rel=1e-7
        )


def test_golden_rule_nondecreasing_in_power_law_window():
    # shell stays inside the pure power-law region: p <= 1 + cutoff(1-w)/2
    ff = FormFactor()
    p_values = np.linspace(1.01, 1.0 + 0.5 * ff.power_edge, 40)
    rates = [golden_rule_rate(np.array([0, 0, p]), 0.1, ff) for p in p_values]
    assert np.all(np.diff(rates) >= -1e-14)


@pytest.fixture(scope="module")
def resonant_setup():
    ff = FormFactor()
    grid = build_grid(RadialSpec(0.05, 1.0, 400, "linear"), AngularSpec(12, 1))
    basis = build_basis(grid, 1)
    return ff, grid, basis


def test_trial_state_one_boson_only(resonant_setup):
    ff, grid, basis = resonant_setup
    P = 1.5 * grid.axis
    eta, norm = trial_state(P, TrialSpec(epsilon=0.05, energy=1.125), grid, basis)
    assert eta[0] == 0.0  # no vacuum amplitude
    assert norm > 0.0
    assert np.linalg.norm(eta) == pytest.approx(norm)


def test_trial_state_norm_by_direct_summation(resonant_setup):
    ff, grid, basis = resonant_setup
    P = 1.5 * grid.axis
    spec = TrialSpec(epsilon=0.03, energy=1.125)
    eta, norm = trial_state(P, spec, grid, basis)
    diff = P[None, :] - grid.k
    free = 0.5 * np.einsum("md,md->m", diff, diff) + grid.magnitudes
    direct = np.sum(
        grid.vol * bump((free - spec.energy) / spec.epsilon) ** 2
        / spec.epsilon
    )
    assert norm**2 == pytest.approx(direct, rel=1e-12)


def test_trial_state_empty_window(resonant_setup):
    ff, grid, basis = resonant_setup
    P = 0.3 * grid.axis  # below threshold: every mode far off resonance
    with pytest.raises(EmptyWindowError):
        trial_state(P, TrialSpec(epsilon=1e-4, energy=0.045), grid, basis)


def test_decay_element_zero_coupling(resonant_setup):
    ff, grid, basis = resonant_setup
    P = 1.5 * grid.axis
    eta, _ = trial_state(P, TrialSpec(epsilon=0.05, energy=1.125), grid, basis)
    assert decay_element(eta, ff, 0.0, basis) == 0.0


def test_decay_element_single_mode_closed_form():
    # on-resonance single mode: element = g * vol * rho^2 * eps^(-1/2) * h(0)
    ff = FormFactor(cutoff=2.0)
    grid = MomentumGrid.single_mode((1.0, 0.0, 0.0), vol=0.3)
    basis = build_basis(grid, 1)
    P = np.array([1.5, 0.0, 0.0])
    eps = 0.02
    eta, _ = trial_state(P, TrialSpec(epsilon=eps, energy=1.125), grid, basis)
    g = 0.4
    expected = g * 0.3 * ff.value(1.0) ** 2 / math.sqrt(eps)
    assert decay_element(eta, ff, g, basis) == pytest.approx(expected, rel=1e-12)


def test_decay_element_matches_assembled_operator(resonant_setup):
    ff, grid, basis = resonant_setup
    P = 1.5 * grid.axis
    g = 0.07
    eta, _ = trial_state(P, TrialSpec(epsilon=0.05, energy=1.125), grid, basis)
    phi = build_interaction(basis, ff)
    vac = basis.vacuum_vector()
    via_matrix = g * float(eta @ (phi.matrix @ vac))
    assert decay_element(eta, ff, g, basis) == pytest.approx(via_matrix, abs=1e-12)


def test_trial_scaling_slope_half():
    ff = FormFactor()
    grid = build_grid(RadialSpec(0.05, 1.0, 2000, "linear"), AngularSpec(24, 1))
    basis = build_basis(grid, 1)
    P = 1.5 * grid.axis
    eps = np.geomspace(1e-3, 1e-1, 7)
    rows = trial_scaling(P, 1.125, grid, basis, ff, 0.05, eps)
    slope = fit_loglog_slope([r[0] for r in rows], [r[3] for r in rows])
    assert 0.4 <= slope <= 0.6


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(epsilon=0.0, energy=1.0)
