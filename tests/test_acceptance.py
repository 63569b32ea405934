"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Desk scale throughout; the largest model here has dimension ~35k.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import fit_loglog_slope

from cerenkov_fiber.cerenkov import golden_rule_rate, trial_scaling
from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import build_fiber_hamiltonian, free_fiber_diagonal
from cerenkov_fiber.observables import expect_number
from cerenkov_fiber.solver import lowest_eigenpairs
from cerenkov_fiber.spectra import (
    FiberModel,
    fh_gradient,
    golden_rule_estimate,
    grad_E_fd,
    second_order_energy,
    vacuum_overlap_distribution,
)
from cerenkov_fiber.virial import DilationSpec, virial_residual
from cerenkov_fiber.weights import ShellSpec, shell_weight

SOLVER_TOL = 1e-9
FD_STEP = 1e-3


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def model_a():
    """Main acceptance model: resolves dyadic shells n <= 3 with >= 2 nodes."""
    grid = build_grid(RadialSpec(0.05, 1.0, 22, "geometric"), AngularSpec(12, 1))
    basis = build_basis(grid, 2)
    return FiberModel(
        grid=grid, basis=basis, form_factor=FormFactor(), solver_tol=SOLVER_TOL
    )


@pytest.fixture(scope="module")
def model_b():
    """Small dense-solvable model for full-spectrum overlap experiments."""
    grid = build_grid(RadialSpec(0.05, 1.0, 8, "geometric"), AngularSpec(8, 1))
    basis = build_basis(grid, 2)
    return FiberModel(
        grid=grid,
        basis=basis,
        form_factor=FormFactor(),
        solver_tol=SOLVER_TOL,
        dense_cutoff=2200,
    )


def test_c01_free_theory_spectral_boundary(model_a):
    ok, details = True, []
    for p in (1.2, 1.5, 2.0):
        P = model_a.on_axis(p)
        e0 = model_a.lowest(P, 0.0, count=1).ground_energy
        brute = float(np.min(free_fiber_diagonal(model_a.basis, P)))
        window = 2.0 * model_a.grid.max_radial_width
        ok &= abs(e0 - brute) <= 1e-12
        ok &= abs(e0 - (p - 0.5)) <= window
        details.append(f"p={p}: |E0-(p-1/2)|={abs(e0 - (p - 0.5)):.3f}<= {window:.3f}")
    for p in (0.3, 0.7):
        e0 = model_a.lowest(model_a.on_axis(p), 0.0, count=1).ground_energy
        ok &= abs(e0 - 0.5 * p * p) <= 1e-12
    report(1, "free-theory spectral boundary", ok, "; ".join(details))


def test_c02_variational_bound(model_a):
    pairs = [
        (0.3, 0.05), (0.5, 0.02), (0.5, 0.1), (0.7, 0.1),
        (1.2, 0.05), (1.5, 0.05), (1.5, 0.1), (2.0, 0.05),
        (0.3, 0.0), (1.5, 0.0),
    ]
    worst = -np.inf
    for p, g in pairs:
        e0 = model_a.lowest(model_a.on_axis(p), g, count=1).ground_energy
        worst = max(worst, e0 - 0.5 * p * p)
    report(
        2, "variational bound E0 <= P^2/2 + tol", worst <= SOLVER_TOL,
        f"max(E0 - P^2/2) = {worst:.3e}",
    )


def test_c03_perturbative_regime(model_a):
    e2 = second_order_energy(
        model_a.on_axis(0.5), model_a.form_factor, model_a.grid
    )
    ok, details = True, [f"E2={e2:.5f}"]
    distances = {}
    for g in (0.02, 0.05):
        res = model_a.lowest(model_a.on_axis(0.5), g, count=1)
        e0 = res.ground_energy
        gap = abs(e0 - (0.125 + g * g * e2))
        ok &= gap <= 0.1 * g * g * abs(e2)
        psi = res.ground_vector() * np.sign(res.ground_vector()[0])
        vac = model_a.basis.vacuum_vector()
        distances[g] = float(np.linalg.norm(psi - vac))
        w0 = float(psi[0] ** 2)
        n_tot = expect_number(psi, np.ones(model_a.grid.n_modes), model_a.basis)
        ok &= (1.0 - w0) <= 5.0 * n_tot
        details.append(f"g={g}: |E0-pred|/(g^2|E2|)={gap / (g * g * abs(e2)):.3f}")
    slope = math.log(distances[0.05] / distances[0.02]) / math.log(0.05 / 0.02)
    ok &= slope >= 0.9
    details.append(f"||psi-vac|| slope={slope:.3f}")
    report(3, "perturbative regime vs second-order oracle", ok, "; ".join(details))


def test_c04_feynman_hellmann_vs_finite_difference(model_a):
    tol = max(10.0 * FD_STEP**2, 10.0 * SOLVER_TOL)
    ok, details = True, []
    for p in (0.5, 1.5):
        P = model_a.on_axis(p)
        res = model_a.lowest(P, 0.05, count=2)
        fh = float(fh_gradient(res, P, model_a.basis) @ model_a.grid.axis)
        fd = grad_E_fd(model_a, p, 0.05, h=FD_STEP)
        diff = abs(fh - fd)
        ok &= diff <= tol
        details.append(f"p={p}: |FH-FD|={diff:.2e}")
    report(4, f"gradient formula vs FD (tol {tol:.0e})", ok, "; ".join(details))


def test_c05_virial_residual_refinement():
    ff = FormFactor()
    residuals = []
    for count in (16, 32, 64):
        grid = build_grid(RadialSpec(0.05, 1.0, count, "linear"), AngularSpec(8, 1))
        basis = build_basis(grid, 1)
        model = FiberModel(grid=grid, basis=basis, form_factor=ff)
        P = model.on_axis(0.5)
        res = model.lowest(P, 0.1, count=1)
        rep = virial_residual(
            res.ground_vector(), P, 0.1, DilationSpec(kappa=math.inf), basis, ff
        )
        residuals.append(abs(rep.residual))
    ok = residuals[1] <= residuals[0] / 2.0 and residuals[2] <= residuals[1] / 2.0
    detail = " -> ".join(f"{r:.3e}" for r in residuals)
    report(5, "virial residual halves under radial doubling", ok, detail)


def test_c06_instability_contrast(model_b):
    stable = vacuum_overlap_distribution(model_b, model_b.on_axis(0.5), 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resonant = vacuum_overlap_distribution(model_b, model_b.on_axis(1.5), 0.05)
    contrast_ok = resonant.weights.max() < stable.weights.max()

    # compare the same spectral region at every coupling: fix the window at
    # the widest (largest-g) golden-rule size so the truncation is g-independent
    center = 0.5 * 1.5**2
    half = 10.0 * golden_rule_estimate(model_b, model_b.on_axis(1.5), 0.1)
    window = (center - half, center + half)
    spreads = []
    couplings = (0.025, 0.05, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for g in couplings:
            dist = vacuum_overlap_distribution(
                model_b, model_b.on_axis(1.5), g, window=window
            )
            spreads.append(dist.spread)
    slope = fit_loglog_slope(couplings, spreads)
    slope_ok = 1.5 <= slope <= 2.5
    report(
        6, "embedded-shell instability contrast", contrast_ok and slope_ok,
        f"maxw {resonant.weights.max():.3f} < {stable.weights.max():.3f}; "
        f"spread slope {slope:.3f}",
    )


def _mc_smeared_delta_rate(p, g, ff, sigma, n_samples, seed):
    """Monte-Carlo oracle: Gaussian-smeared energy delta over the cutoff ball."""
    rng = np.random.default_rng(seed)
    ball = ff.cutoff
    total = 0.0
    done = 0
    chunk = 2_000_000
    while done < n_samples:
        n = min(chunk, n_samples - done)
        pts = rng.uniform(-ball, ball, size=(n, 3))
        inside = np.einsum("ij,ij->i", pts, pts) <= ball * ball
        pts = pts[inside]
        r = np.linalg.norm(pts, axis=1)
        gap = 0.5 * ((p - pts[:, 2]) ** 2 + pts[:, 0] ** 2 + pts[:, 1] ** 2) + r \
            - 0.5 * p * p
        kernel = np.exp(-0.5 * (gap / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
        total += float(np.sum(ff.value(r) ** 2 * kernel))
        done += n
    return 2.0 * math.pi * g * g * total * (2.0 * ball) ** 3 / n_samples


def test_c07_golden_rule_vs_monte_carlo():
    ff = FormFactor()
    g = 0.1
    ok, details = True, []
    for p, seed in ((1.2, 101), (1.5, 202)):
        quad = golden_rule_rate(np.array([0.0, 0.0, p]), g, ff)
        mc1 = _mc_smeared_delta_rate(p, g, ff, sigma=0.015, n_samples=12_000_000, seed=seed)
        mc2 = _mc_smeared_delta_rate(p, g, ff, sigma=0.030, n_samples=12_000_000, seed=seed + 7)
        extrapolated = (4.0 * mc1 - mc2) / 3.0  # cancels the sigma^2 bias
        rel = abs(extrapolated - quad) / quad
        ok &= rel <= 0.02
        details.append(f"p={p}: rel={rel:.4f}")
    for p in (0.8, 1.0):
        ok &= golden_rule_rate(np.array([0.0, 0.0, p]), g, ff) == 0.0
    report(7, "golden rule vs Monte-Carlo oracle (2%)", ok, "; ".join(details))


def test_c08_forward_cone_concentration(model_b):
    p, g = 1.5, 0.05
    P = model_b.on_axis(p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dist = vacuum_overlap_distribution(model_b, P, g)
    lo, hi = dist.window
    vals, vecs = scipy.linalg.eigh(model_b.hamiltonian(P, g).matrix.toarray())
    selected = np.nonzero((vals >= lo) & (vals <= hi))[0]
    cos_cut = 1.0 / p - 0.1
    in_cone = ((model_b.grid.unit_vectors @ model_b.grid.axis) > cos_cut).astype(float)
    num = den = 0.0
    for j in selected:
        w = vecs[0, j] ** 2
        psi = vecs[:, j]
        num += w * expect_number(psi, in_cone, model_b.basis)
        den += w * expect_number(psi, np.ones(model_b.grid.n_modes), model_b.basis)
    ratio = num / den
    solid_angle_fraction = (1.0 - cos_cut) / 2.0
    ok = ratio >= 2.0 * solid_angle_fraction
    report(
        8, "forward-cone boson concentration", ok,
        f"cone share {ratio:.3f} vs solid angle {solid_angle_fraction:.3f}",
    )


def test_c09_trial_state_width_scaling():
    ff = FormFactor()
    grid = build_grid(RadialSpec(0.05, 1.0, 4000, "linear"), AngularSpec(32, 1))
    basis = build_basis(grid, 1)
    P = 1.5 * grid.axis
    epsilons = np.geomspace(1e-3, 1e-1, 9)
    rows = trial_scaling(P, 0.5 * 1.5**2, grid, basis, ff, 0.05, epsilons)
    slope = fit_loglog_slope([r[0] for r in rows], [r[3] for r in rows])
    ok = 0.4 <= slope <= 0.6
    report(9, "decay element scales as width^(1/2)", ok, f"slope {slope:.4f}")


def test_c10_scale_by_scale_shell_numbers(model_a):
    couplings = (0.02, 0.04, 0.08)
    beta = model_a.form_factor.beta
    shell_w = {
        n: shell_weight(ShellSpec(n), model_a.grid.magnitudes) ** 2 for n in (1, 2, 3)
    }
    numbers = {n: [] for n in (1, 2, 3)}
    for g in couplings:
        psi = model_a.lowest(model_a.on_axis(0.5), g, count=1).ground_vector()
        for n in (1, 2, 3):
            numbers[n].append(expect_number(psi, shell_w[n], model_a.basis))
    ok, details = True, []
    bound_constant = 10.0
    for n in (1, 2, 3):
        slope = fit_loglog_slope(couplings, numbers[n])
        ok &= 1.7 <= slope <= 2.3
        lo_r, hi_r = 1.0 / (2 * (n + 1)), 3.0 / (2 * n)
        norm_sq = 4.0 * math.pi * (hi_r ** (2 * beta + 3) - lo_r ** (2 * beta + 3)) / (
            2 * beta + 3
        )
        q = max(
            nv / (n * n * norm_sq) / (g * g)
            for nv, g in zip(numbers[n], couplings)
        )
        ok &= q <= bound_constant
        details.append(f"n={n}: slope={slope:.3f} q={q:.3f}")
    report(10, "scale-by-scale shell numbers ~ g^2", ok, "; ".join(details))


def test_c11_oracle_equivalence_small_instances():
    ff = FormFactor()
    ok, details = True, []
    # every acceptance-suite grid with dimension <= 2000
    small_cases = [
        (RadialSpec(0.1, 1.0, 6, "geometric"), AngularSpec(4, 2), 2),
        (RadialSpec(0.05, 1.0, 10, "geometric"), AngularSpec(6, 1), 2),
        (RadialSpec(0.05, 1.0, 16, "linear"), AngularSpec(8, 1), 1),
    ]
    for radial, angular, n_max in small_cases:
        grid = build_grid(radial, angular)
        basis = build_basis(grid, n_max)
        assert basis.dimension <= 2000
        h = build_fiber_hamiltonian(basis, ff, (0.0, 0.0, 0.6), 0.1)
        dense = scipy.linalg.eigvalsh(h.matrix.toarray(), subset_by_index=(0, 4))
        # a cutoff below the Schur block routes to LOBPCG; one between the
        # block and the dimension to the certified shift-invert path
        lobpcg = lowest_eigenpairs(h, 5, tol=SOLVER_TOL, dense_cutoff=0)
        schur = lowest_eigenpairs(
            h, 5, tol=SOLVER_TOL, dense_cutoff=basis.dimension - 1
        )
        ok &= lobpcg.method == "lobpcg"
        ok &= schur.method == "schur"
        gap = max(
            float(np.max(np.abs(dense - other.eigenvalues)))
            for other in (lobpcg, schur)
        )
        ok &= gap <= 1e-8
        details.append(f"dim={basis.dimension}: {gap:.1e}")

    # single-mode resonant toy model against its closed form
    toy_ff = FormFactor(cutoff=2.0)
    grid = MomentumGrid.single_mode((1.0, 0.0, 0.0), vol=0.3)
    basis = build_basis(grid, 1)
    g = 0.3
    h = build_fiber_hamiltonian(basis, toy_ff, (1.5, 0, 0), g)
    res = lowest_eigenpairs(h, 1, tol=1e-12)
    closed = 1.125 - g * math.sqrt(0.3) * toy_ff.value(1.0)
    gap = abs(res.ground_energy - closed)
    ok &= gap <= 1e-12
    details.append(f"2x2: {gap:.1e}")
    report(11, "iterative vs dense oracle equivalence", ok, "; ".join(details))
