import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import (
    expect_field_momentum_sq,
    index_of,
    single_mode_grid,
    vacuum_vector,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from cerenkov_fiber.cli import main
from cerenkov_fiber.config import config_from_dict, load_config, make_model
from cerenkov_fiber.fock import FockBasis, build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import (
    displacement_expectation,
    free_fiber_diagonal,
    interaction_coefficients,
)
from cerenkov_fiber.spectra import FiberModel
from cerenkov_fiber.virial import (
    DilationParameterError,
    DilationSpec,
    VirialReport,
    dilated_form_factor,
    kappa_window,
    sector_virial_residual,
    virial_residual,
)
from cerenkov_fiber.weights import ConeSpec, ShellSpec

Z = np.array([0.0, 0.0, 1.0])


def energy_identity_residual(
    state,
    P,
    g: float,
    basis: FockBasis,
    form_factor: FormFactor,
    eigen_residual: float | None = None,
) -> VirialReport:
    """Energy-form rearrangement of the kappa = inf identity, as an oracle.

    R = <H_P> - P^2/2 + (1/2)<(P^f)^2> - g <b+(id rho) + b(id rho)>
        - g <phi(rho)>.

    Algebraically identical to the kappa = inf residual (substituting
    <H_P> = P^2/2 - P.<P^f> + <(P^f)^2>/2 + <H^f> + g<phi> makes the
    interaction terms cancel), so the two agree to rounding on any state.
    """
    psi = np.asarray(state, dtype=float)
    P = np.asarray(P, dtype=float).reshape(3)
    grid = basis.grid
    h_free = float(np.sum(psi * psi * free_fiber_diagonal(basis, P)))
    phi = displacement_expectation(
        basis, interaction_coefficients(grid, form_factor), psi
    )
    h_full = h_free + g * phi

    spec = DilationSpec(kappa=math.inf)
    coeffs = np.sqrt(grid.vol) * dilated_form_factor(form_factor, spec)(grid.k)
    t_source = g * displacement_expectation(basis, coeffs, psi)
    pf_sq = expect_field_momentum_sq(psi, basis)

    p_sq_half = 0.5 * float(P @ P)
    residual = h_full - p_sq_half + 0.5 * pf_sq - t_source - g * phi
    return VirialReport(
        residual=residual,
        number_energy_term=h_full - p_sq_half,
        momentum_mixed_term=0.5 * pf_sq,
        drift_term=g * phi,
        source_term=t_source,
        kappa=math.inf,
        mode="parallel",
        eigen_residual=eigen_residual,
    )


def kvec(r, u=1.0, phi=0.0):
    s = math.sqrt(max(1 - u * u, 0.0))
    return np.array([r * s * math.cos(phi), r * s * math.sin(phi), r * u])


def test_infinite_kappa_symbol_on_power_region():
    ff = FormFactor(amplitude=1.0, beta=1.0, cutoff=1.0, smooth_width=0.2)
    symbol = dilated_form_factor(ff, DilationSpec(kappa=math.inf))
    for r in (0.2, 0.5, 0.7):
        # -(beta + 3/2) r^beta on the pure power region
        assert symbol(kvec(r))[0] == pytest.approx(-(1.0 + 1.5) * r, rel=1e-12)


def test_finite_kappa_matches_infinite_inside_window():
    ff = FormFactor()
    inf_symbol = dilated_form_factor(ff, DilationSpec(kappa=math.inf))
    fin_symbol = dilated_form_factor(ff, DilationSpec(kappa=25.0))
    for r in (0.1, 0.5, 0.9):  # window [1/25, 25] covers these with chi = 1
        assert fin_symbol(kvec(r))[0] == pytest.approx(inf_symbol(kvec(r))[0], abs=1e-14)


def test_symbol_matches_finite_difference_of_generator():
    # -(chi (r d/dr (chi rho) + 1.5 chi rho)) via central differences on chi*rho
    ff = FormFactor(amplitude=0.8, beta=1.2, cutoff=1.0, smooth_width=0.25)
    kappa = 3.0
    symbol = dilated_form_factor(ff, DilationSpec(kappa=kappa))
    h = 1e-5
    for r in (0.2, 0.35, 0.6, 2.2):
        chirho = lambda x: kappa_window(kappa, x) * ff.value(x)
        fd = (chirho(r + h) - chirho(r - h)) / (2 * h)
        expected = -kappa_window(kappa, r) * (r * fd + 1.5 * chirho(r))
        assert symbol(kvec(r))[0] == pytest.approx(expected, abs=1e-6)


def test_commutator_identities_via_finite_differences():
    # i[|k|, d] = chi^2 |k| and i[k_z, d] = chi^2 k_z checked against an FD
    # representation of d = chi (r f' + 1.5 f) chi acting on radial test funcs
    kappa = 4.0
    chi = lambda r: kappa_window(kappa, r)
    h = 1e-6
    f = lambda r: np.exp(-((r - 0.6) ** 2) / 0.05)

    def d_op(func, r):
        inner = lambda x: chi(x) * func(x)
        fd = (inner(r + h) - inner(r - h)) / (2 * h)
        return chi(r) * (r * fd + 1.5 * inner(r))

    for r in (0.3, 0.6, 1.1):
        lhs = r * d_op(f, r) - d_op(lambda x: x * f(x), r)
        rhs = -chi(r) ** 2 * r * f(r)
        # i[|k|, d] f = chi^2 |k| f; the FD rep realizes -i d, hence the sign
        assert lhs == pytest.approx(rhs, abs=1e-5)


def test_kappa_validation():
    ff = FormFactor()
    with pytest.raises(DilationParameterError):
        dilated_form_factor(ff, DilationSpec(kappa=0.9))
    with pytest.raises(DilationParameterError):
        DilationSpec(kappa=-2.0)
    with pytest.raises(DilationParameterError):
        DilationSpec(kappa=math.inf, mode="perpendicular")  # needs a cone


def test_fiber_identity_rejects_sector_specs(small_basis, default_ff):
    # shells and cones belong to the sector identity, which takes grad E in
    # place of P
    cone = ConeSpec(Z, "forward", plateau_cos=0.8, support_cos=0.3)
    for spec in (DilationSpec(shell=ShellSpec(1)), DilationSpec(cone=cone)):
        with pytest.raises(DilationParameterError, match="sector"):
            virial_residual(
                vacuum_vector(small_basis), (0, 0, 0.5), 0.1, spec, small_basis,
                default_ff,
            )


def test_vacuum_residual_zero(small_basis, default_ff):
    vac = vacuum_vector(small_basis)
    rep = virial_residual(
        vac, (0.5, 0, 0), 0.0, DilationSpec(kappa=math.inf), small_basis, default_ff
    )
    assert rep.residual == 0.0


def test_one_boson_state_residual_closed_form(default_ff):
    grid = single_mode_grid((0.0, 0.3, 0.4), vol=0.1)
    basis = build_basis(grid, 1)
    one = np.zeros(basis.dimension)
    one[index_of(basis, (0,))] = 1.0
    P = np.array([0.2, 0.0, 0.6])
    rep = virial_residual(one, P, 0.0, DilationSpec(kappa=math.inf), basis, default_ff)
    k = np.array([0.0, 0.3, 0.4])
    expected = np.linalg.norm(k) + k @ k - P @ k
    assert rep.residual == pytest.approx(expected, abs=1e-14)


def test_energy_identity_vacuum_zero(small_basis, default_ff):
    for P in ((0.5, 0, 0), (0, 0.2, 1.5)):
        rep = energy_identity_residual(
            vacuum_vector(small_basis), P, 0.0, small_basis, default_ff
        )
        assert rep.residual == 0.0


def test_energy_identity_equals_kappa_infinity_residual(small_model):
    # exact algebraic rearrangement: agreement to rounding on any state
    rng = np.random.default_rng(9)
    psi = rng.normal(size=small_model.basis.dimension)
    psi /= np.linalg.norm(psi)
    P, g = np.array([0.3, -0.2, 0.5]), 0.17
    r1 = virial_residual(
        psi, P, g, DilationSpec(kappa=math.inf), small_model.basis,
        small_model.form_factor,
    )
    r2 = energy_identity_residual(psi, P, g, small_model.basis, small_model.form_factor)
    assert r2.residual == pytest.approx(r1.residual, abs=1e-12)


def test_ground_state_energy_identity_small(small_model):
    P = small_model.on_axis(0.5)
    res = small_model.lowest(P, 0.1, count=1)
    psi = res.ground_vector()
    r_inf = virial_residual(
        psi, P, 0.1, DilationSpec(kappa=math.inf), small_model.basis,
        small_model.form_factor,
    )
    r_en = energy_identity_residual(
        psi, P, 0.1, small_model.basis, small_model.form_factor
    )
    assert abs(r_en.residual) <= 10.0 * abs(r_inf.residual) + 1e-12


def test_residual_decreases_under_radial_refinement():
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
    assert residuals[1] < residuals[0] / 2.0
    assert residuals[2] < residuals[1] / 2.0


def test_finite_kappa_equals_infinite_when_window_covers_grid(small_model):
    # 1/kappa below k_min and kappa above k_max: chi = 1 on every mode
    P = small_model.on_axis(0.4)
    res = small_model.lowest(P, 0.1, count=1)
    psi = res.ground_vector()
    args = (psi, P, 0.1)
    r_inf = virial_residual(
        *args, DilationSpec(kappa=math.inf), small_model.basis, small_model.form_factor
    )
    r_fin = virial_residual(
        *args, DilationSpec(kappa=25.0), small_model.basis, small_model.form_factor
    )
    assert r_fin.residual == pytest.approx(r_inf.residual, abs=1e-14)


def test_residual_shrinks_with_solver_tolerance(small_model):
    P = small_model.on_axis(0.5)
    spec = DilationSpec(kappa=math.inf)
    vals = {}
    for tol in (1e-6, 1e-9):
        model = dataclasses.replace(small_model, solver_tol=tol)
        res = model.lowest(P, 0.1, count=1)
        rep = virial_residual(
            res.ground_vector(), P, 0.1, spec, small_model.basis,
            small_model.form_factor, eigen_residual=float(res.residual_norms[0]),
        )
        vals[tol] = rep
    # residuals dominated by quadrature error agree; the eigen-residual shrank
    assert vals[1e-9].eigen_residual <= vals[1e-6].eigen_residual + 1e-12
    assert abs(vals[1e-9].residual - vals[1e-6].residual) <= 1e-5


def test_sector_vacuum_zero(small_basis, default_ff):
    cone = ConeSpec(Z, "forward", plateau_cos=0.8, support_cos=0.3)
    rep = sector_virial_residual(
        vacuum_vector(small_basis), (0, 0, 0.5), ShellSpec(1), cone, "parallel", 0.1,
        small_basis, default_ff,
    )
    assert rep.residual == 0.0


def test_sector_boson_outside_cone_support(default_ff):
    grid = single_mode_grid((0.0, 0.0, -0.6), vol=0.1)  # backward mode
    basis = build_basis(grid, 1)
    one = np.zeros(basis.dimension)
    one[index_of(basis, (0,))] = 1.0
    cone = ConeSpec(Z, "forward", plateau_cos=0.8, support_cos=0.3)
    rep = sector_virial_residual(
        one, (0, 0, 1.0), ShellSpec(1), cone, "parallel", 0.0, basis, default_ff
    )
    assert rep.number_energy_term == 0.0
    assert rep.momentum_mixed_term == 0.0


def test_sector_perpendicular_axis_boson_weightless(default_ff):
    # |k| = 0.45 lies on the n = 2 plateau; k on the cone axis has k_perp = 0
    grid = single_mode_grid((0.0, 0.0, 0.45), vol=0.1)
    basis = build_basis(grid, 1)
    one = np.zeros(basis.dimension)
    one[index_of(basis, (0,))] = 1.0
    cone = ConeSpec(Z, "forward", plateau_cos=0.8, support_cos=0.3)
    rep = sector_virial_residual(
        one, (0, 0, 1.0), ShellSpec(2), cone, "perpendicular", 0.0, basis, default_ff
    )
    assert rep.number_energy_term == pytest.approx(0.0, abs=1e-15)
    assert rep.momentum_mixed_term == pytest.approx(0.0, abs=1e-15)


def test_sector_perpendicular_symbol_matches_fd(default_ff):
    # k_perp . grad_perp acting on chi(r) xi(u) rho(r), against 2D central FD
    shell = ShellSpec(2)
    cone = ConeSpec(Z, "complement-double", plateau_cos=0.2, support_cos=0.8)
    spec = DilationSpec(shell=shell, cone=cone, mode="perpendicular")
    symbol = dilated_form_factor(default_ff, spec)

    from cerenkov_fiber.weights import cone_weight, shell_weight

    def w_rho(k):
        r = np.linalg.norm(k)
        return (
            shell_weight(shell, r)
            * cone_weight(cone, k / r)
            * default_ff.value(r)
        )

    h = 1e-6
    for k in (kvec(0.4, 0.5), kvec(0.3, -0.3, 1.2), kvec(0.45, 0.0)):
        kp = k - (k @ Z) * Z
        grad = np.zeros(3)
        for d in (0, 1):  # transverse directions; axis = z
            dk = np.zeros(3)
            dk[d] = h
            grad[d] = (w_rho(k + dk) - w_rho(k - dk)) / (2 * h)
        r = np.linalg.norm(k)
        xi = cone_weight(cone, k / r)
        chi = shell_weight(shell, r)
        expected = -chi * xi * (kp @ grad + w_rho(k))
        assert symbol(k)[0] == pytest.approx(expected, abs=1e-6)


def test_report_serialization(tmp_path):
    # the virial command writes the report's fields, its residual flag and
    # the kappa window, spelled "inf" when no --kappa is given
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"k_min": 0.1, "radial_count": 6, "polar_count": 4, "azimuthal_count": 2}
    ))
    common = ["--config", str(config), "--p", "0,0,0.5", "--g", "0.1"]
    assert main(["virial", "--out", str(tmp_path / "inf")] + common) == 0
    assert main(["virial", "--out", str(tmp_path), "--kappa", "30"] + common) == 0
    assert json.loads((tmp_path / "inf" / "virial.json").read_text())["kappa"] == "inf"
    record = json.loads((tmp_path / "virial.json").read_text())
    cfg = load_config(str(config))
    model = make_model(cfg)
    P = model.on_axis(0.5)
    res = model.lowest(P, 0.1)
    rep = virial_residual(
        res.ground_vector(), P, 0.1, DilationSpec(kappa=30.0), model.basis,
        model.form_factor, eigen_residual=float(res.residual_norms[0]),
    )
    assert record["kappa"] == 30.0
    assert record["shell_n"] is None and record["mode"] == "parallel"
    for key, value in dataclasses.asdict(rep).items():
        assert record[key] == value, key
    assert record["residual_dominates"] is rep.residual_dominates
    assert record["fingerprint"] == cfg.fingerprint()
    assert record["p"] == [0.0, 0.0, 0.5]
    assert record["e0"] == res.ground_energy


@settings(max_examples=25, deadline=None)
@given(
    radial=st.integers(1, 3),
    polar=st.integers(1, 2),
    azimuthal=st.integers(1, 3),
    n_max=st.integers(1, 3),
    e_cut=st.one_of(st.none(), st.floats(0.0, 2.5)),
    P=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    g=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kappa_infinity_residual_equals_energy_identity(
    radial, polar, azimuthal, n_max, e_cut, P, g, seed
):
    grid = build_grid(RadialSpec(0.1, 1.0, radial), AngularSpec(polar, azimuthal))
    basis = build_basis(grid, n_max, e_cut)
    ff = FormFactor(cutoff=2.0)
    psi = np.random.default_rng(seed).normal(size=basis.dimension)
    psi /= np.linalg.norm(psi)
    r1 = virial_residual(psi, P, g, DilationSpec(kappa=math.inf), basis, ff)
    r2 = energy_identity_residual(psi, P, g, basis, ff)
    assert r2.residual == pytest.approx(r1.residual, abs=1e-12)


def _ground_state_virial(cfg: dict) -> VirialReport:
    model = make_model(config_from_dict(cfg))
    P = np.array([0.5, 0.0, 0.0])
    result = model.lowest(P, 0.1)
    report = virial_residual(
        result.ground_vector(),
        P,
        0.1,
        DilationSpec(kappa=math.inf),
        model.basis,
        model.form_factor,
    )
    return report


def test_residual_dominates_on_default_geometric_grid():
    # 16 geometric nodes under-resolve the identity: residual 3.7e-2 against
    # terms of at most 2.0e-2
    report = _ground_state_virial({})
    assert report.residual_dominates is True
    assert abs(report.residual) == pytest.approx(3.7e-2, rel=0.05)


def test_residual_small_on_linear_grid():
    # the benchmark's 32-node linear radial grid, at n_max = 2
    report = _ground_state_virial(
        {"radial_count": 32, "radial_spacing": "linear", "polar_count": 4}
    )
    assert report.residual_dominates is False
    terms = [
        report.number_energy_term,
        report.momentum_mixed_term,
        report.drift_term,
        report.source_term,
    ]
    assert abs(report.residual) < 0.01 * max(abs(t) for t in terms)
