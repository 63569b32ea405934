import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import max_radial_width, single_mode_grid

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import free_fiber_diagonal
from cerenkov_fiber.solver import SchurBlocks
from cerenkov_fiber.spectra import (
    DEGENERACY_TOL,
    LANCZOS_MEMORY_BUDGET,
    OVERLAP_BRACKET_WIDTH,
    FiberModel,
    ResonantModeError,
    _gauss_rule,
    _vacuum_lanczos,
    curvature_fd,
    fh_gradient,
    golden_rule_estimate,
    grad_E_fd,
    mass_shell_scan,
    second_order_energy,
    vacuum_overlap_distribution,
)


@pytest.fixture(scope="module")
def scan_model():
    grid = build_grid(RadialSpec(0.05, 1.0, 10, "geometric"), AngularSpec(6, 1))
    basis = build_basis(grid, 2)
    return FiberModel(grid=grid, basis=basis, form_factor=FormFactor())


def test_free_theory_scan_row(scan_model):
    scan = mass_shell_scan(scan_model, 0.5, 0.5, 1, g=0.0, n_shell_max=2)
    row = scan.rows[0]
    assert row.e0 == pytest.approx(0.125, abs=1e-12)
    assert row.shell_numbers == pytest.approx([0.0, 0.0])
    assert row.vacuum_overlap == pytest.approx(1.0)
    assert row.grad_fh == pytest.approx(0.5, abs=1e-9)
    assert row.status == "ok"


def test_free_gradient_and_curvature(scan_model):
    assert grad_E_fd(scan_model, 0.5, 0.0) == pytest.approx(0.5, abs=1e-9)
    assert curvature_fd(scan_model, 0.5, 0.0) == pytest.approx(1.0, abs=1e-6)


def test_free_embedded_minimum_tracks_boundary(scan_model):
    # at g = 0 and |P| = 1.5 the ground level is the brute-force minimum over
    # grid states, within grid resolution of |P| - 1/2
    P = scan_model.on_axis(1.5)
    res = scan_model.lowest(P, 0.0, count=1)
    brute = float(np.min(free_fiber_diagonal(scan_model.basis, P)))
    assert res.ground_energy == pytest.approx(brute, abs=1e-13)
    assert abs(res.ground_energy - 1.0) <= 2.0 * max_radial_width(scan_model.grid)


def test_free_slope_above_threshold_near_unity(scan_model):
    # at g = 0 the minimum tracks p*c_max - 1 in radius, so the radial slope
    # is 1 up to the polar-resolution error p (1 - c_max^2) plus FD truncation
    p = 2.0
    fd = grad_E_fd(scan_model, p, 0.0, h=1e-3)
    c_max = float(np.max(scan_model.grid.k[:, 2] / scan_model.grid.magnitudes))
    tol = p * (1.0 - c_max**2) + 1e-2
    assert abs(fd - 1.0) <= tol


def test_scan_marks_failed_points_and_continues(monkeypatch):
    grid = build_grid(RadialSpec(0.05, 1.0, 10, "geometric"), AngularSpec(6, 1))
    basis = build_basis(grid, 2)
    # dim 1,891 with a Schur block of 61: a cutoff of 10 forces LOBPCG, 100
    # the Schur path.  The iteration budget fails LOBPCG; a one-pair Schur
    # solve runs no iterations, so an inertia count that reports one level
    # too many fails its certificate
    true_count = SchurBlocks.count_below

    def one_more(self, s):
        top, inertia = true_count(self, s)
        return top, inertia + 1

    for dense_cutoff, method in ((10, "lobpcg"), (100, "schur")):
        model = FiberModel(
            grid=grid,
            basis=basis,
            form_factor=FormFactor(),
            solver_tol=1e-14,
            dense_cutoff=dense_cutoff,
        )
        assert model.lowest(model.on_axis(0.3), 0.05).method == method
        with monkeypatch.context() as patch:
            if method == "lobpcg":
                model.solver_maxiter = 1
            else:
                patch.setattr(SchurBlocks, "count_below", one_more)
            scan = mass_shell_scan(model, 0.3, 0.7, 3, g=0.05)
        assert len(scan.rows) == 3
        assert all(row.status == "failed" for row in scan.rows)
        assert all(math.isnan(row.e0) for row in scan.rows)


def test_gradients_agree_perturbative(scan_model):
    P = scan_model.on_axis(0.5)
    res = scan_model.lowest(P, 0.05, count=2)
    fh = float(fh_gradient(res, P, scan_model.basis) @ scan_model.grid.axis)
    fd = grad_E_fd(scan_model, 0.5, 0.05, h=1e-3)
    assert abs(fh - fd) <= 1e-5


def test_fh_transverse_components_vanish_on_symmetric_grid():
    grid = build_grid(RadialSpec(0.1, 1.0, 5, "geometric"), AngularSpec(4, 4))
    basis = build_basis(grid, 2)
    model = FiberModel(grid=grid, basis=basis, form_factor=FormFactor())
    P = model.on_axis(0.5)
    res = model.lowest(P, 0.1, count=1)
    grad = fh_gradient(res, P, basis)
    assert abs(grad[0]) <= 1e-8
    assert abs(grad[1]) <= 1e-8


def test_fh_gradient_averages_degenerate_cluster(wide_ff):
    # single resonant mode at g = 0: vacuum and one-boson states are exactly
    # degenerate, so the gradient must be the cluster average of P - <P^f>
    grid = single_mode_grid((1.0, 0.0, 0.0), vol=0.3)
    basis = build_basis(grid, 1)
    model = FiberModel(grid=grid, basis=basis, form_factor=wide_ff)
    P = np.array([1.5, 0.0, 0.0])
    res = model.lowest(P, 0.0, count=2)
    assert res.eigenvalues == pytest.approx([1.125, 1.125], abs=1e-14)
    grad = fh_gradient(res, P, basis)
    assert grad == pytest.approx([1.5 - 0.5, 0.0, 0.0])


def test_second_order_single_mode_closed_form(wide_ff):
    grid = single_mode_grid((0.0, 0.0, 0.8), vol=0.15)
    P = np.array([0.0, 0.0, 0.4])
    gap = 0.5 * (0.4 - 0.8) ** 2 + 0.8 - 0.5 * 0.4**2
    expected = -0.15 * wide_ff.value(0.8) ** 2 / gap
    assert second_order_energy(P, wide_ff, grid) == pytest.approx(expected, rel=1e-12)


def test_second_order_resonant_failure_names_mode(scan_model):
    with pytest.raises(ResonantModeError) as err:
        second_order_energy(
            scan_model.on_axis(1.5), scan_model.form_factor, scan_model.grid
        )
    assert "mode" in str(err.value)
    assert err.value.gap <= 0.0


def test_second_order_matches_full_solver(scan_model):
    e2 = second_order_energy(
        scan_model.on_axis(0.5), scan_model.form_factor, scan_model.grid
    )
    for g in (0.02, 0.05):
        e0 = scan_model.ground_energy(0.5, g)
        ratio = (e0 - 0.125) / (g * g)
        assert ratio == pytest.approx(e2, rel=0.10)


def test_variational_bound(scan_model):
    for p in (0.3, 0.8, 1.3, 1.9):
        for g in (0.0, 0.05, 0.1):
            e0 = scan_model.ground_energy(p, g)
            assert e0 <= 0.5 * p * p + 1e-9


def test_variational_nesting_under_basis_enlargement():
    grid = build_grid(RadialSpec(0.1, 1.0, 6, "geometric"), AngularSpec(4, 1))
    ff = FormFactor()
    energies = []
    for n_max in (0, 1, 2, 3):
        basis = build_basis(grid, n_max)
        model = FiberModel(grid=grid, basis=basis, form_factor=ff)
        energies.append(model.ground_energy(0.5, 0.1))
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_scan_rows_strictly_increasing_and_csv(tmp_path, scan_model):
    scan = mass_shell_scan(
        scan_model, 0.2, 0.8, 4, g=0.0, n_shell_max=2, fingerprint="cafebabe"
    )
    ps = [row.p for row in scan.rows]
    assert all(b > a for a, b in zip(ps, ps[1:]))
    for row in scan.rows:
        assert row.e0 == pytest.approx(0.5 * row.p**2, abs=1e-9)
    csv_path = tmp_path / "scan.csv"
    scan.to_csv(csv_path)
    text = csv_path.read_text()
    assert text.startswith("# fingerprint=cafebabe\n")
    header = text.split("\n")[1].split(",")
    assert header == [
        "p", "e0", "grad_e_fh", "grad_e_fd", "curvature_fd",
        "n_shell_1", "n_shell_2", "vacuum_overlap", "status",
    ]
    json_path = tmp_path / "scan.json"
    scan.to_json(json_path, config={"demo": 1})
    record = json.loads(json_path.read_text())
    assert record["fingerprint"] == "cafebabe"
    assert len(record["rows"]) == 4


def test_scan_validation(scan_model):
    with pytest.raises(ValueError):
        mass_shell_scan(scan_model, 0.0, 1.0, 3, g=0.0)
    with pytest.raises(ValueError):
        mass_shell_scan(scan_model, 0.5, 0.4, 3, g=0.0)
    with pytest.raises(ValueError):
        mass_shell_scan(scan_model, 0.5, 0.5, 3, g=0.0)


def test_overlap_distribution_free_theory(scan_model):
    dist = vacuum_overlap_distribution(scan_model, scan_model.on_axis(0.5), 0.0)
    top = np.argmax(dist.weights)
    assert dist.weights[top] == pytest.approx(1.0, abs=1e-12)
    assert dist.energies[top] == pytest.approx(0.125, abs=1e-12)
    assert dist.spread == pytest.approx(0.0, abs=1e-15)
    assert not dist.low_capture
    # at g = 0 the below-threshold window keeps its coupling-scale floor
    assert dist.window == pytest.approx((0.125 - 1e-4, 0.125 + 1e-4), abs=1e-15)


def test_overlap_auto_window_holds_dressed_ground_state(scan_model):
    # off the grid axis E0 = 0.118785, below the old window [0.12, 0.13]
    P = np.array([0.5, 0.0, 0.0])
    dist = vacuum_overlap_distribution(scan_model, P, 0.05)
    lo, hi = dist.window
    assert lo <= scan_model.lowest(P, 0.05).ground_energy <= hi


def test_overlap_distribution_perturbative_vs_resonant(scan_model):
    stable = vacuum_overlap_distribution(scan_model, scan_model.on_axis(0.5), 0.05)
    assert stable.weights.max() > 0.9
    with pytest.warns(UserWarning, match="captured"):
        # the resonance-sized window clips a little genuine tail weight here
        resonant = vacuum_overlap_distribution(
            scan_model, scan_model.on_axis(1.5), 0.05
        )
    assert resonant.weights.max() < stable.weights.max()


def test_overlap_iterative_path_agrees_with_dense(scan_model):
    # above the cutoff the rows are Gauss nodes, not eigenpairs: what must
    # agree is the window weight, which the certified bracket holds.  Below
    # threshold the window holds one eigenvalue, the dressed ground state, so
    # the bracket holds the dense path's largest weight too
    P = scan_model.on_axis(0.5)
    dense = vacuum_overlap_distribution(scan_model, P, 0.05)
    small = FiberModel(
        grid=scan_model.grid,
        basis=scan_model.basis,
        form_factor=scan_model.form_factor,
        dense_cutoff=10,  # force the vacuum-Lanczos branch
    )
    iterative = _overlap_quietly(small, P, 0.05)
    assert iterative.window == dense.window
    lo, hi = dense.window
    inside = (dense.energies >= lo) & (dense.energies <= hi)
    assert np.sum(inside) == 1
    lower, upper = iterative.bracket
    assert 0.0 < upper - lower <= OVERLAP_BRACKET_WIDTH
    assert lower <= dense.weights[inside].sum() <= upper
    assert lower <= dense.weights.max() <= upper


def test_overlap_low_capture_flag(scan_model):
    with pytest.warns(UserWarning, match="captured"):
        dist = vacuum_overlap_distribution(
            scan_model, scan_model.on_axis(1.5), 0.05, window=(1.1245, 1.1255)
        )
    assert dist.low_capture
    assert dist.captured_weight < 0.99


def test_overlap_csv(tmp_path, scan_model):
    dist = vacuum_overlap_distribution(scan_model, scan_model.on_axis(0.5), 0.02)
    path = tmp_path / "overlap.csv"
    dist.to_csv(path, fingerprint="deadbeef")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "# fingerprint=deadbeef"
    assert lines[1].startswith("# captured_weight=")
    assert lines[2] == "energy,weight"


def _cluster_sums(energies, weights):
    """Energies of DEGENERACY_TOL clusters and the weight summed over each."""
    order = np.argsort(energies)
    energies, weights = energies[order], weights[order]
    breaks = np.nonzero(np.diff(energies) > DEGENERACY_TOL)[0] + 1
    starts = np.concatenate([[0], breaks])
    return energies[starts], np.add.reduceat(weights, starts)


def _full_eigh_rows(model, P, g, window):
    """The overlap's rows from a full dense eigh: the window's eigenpairs."""
    vals, vecs = scipy.linalg.eigh(model.hamiltonian(P, g).matrix.toarray())
    lo, hi = window
    rows = np.nonzero((vals >= lo) & (vals <= hi))[0]
    return _cluster_sums(vals[rows], vecs[0, rows] ** 2)


def _overlap_quietly(model, P, g, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # resonant windows capture < 0.99
        return vacuum_overlap_distribution(model, P, g, **kwargs)


@pytest.fixture(scope="module")
def symmetric_model():
    grid = build_grid(RadialSpec(0.05, 1.0, 4, "geometric"), AngularSpec(2, 4))
    return FiberModel(grid=grid, basis=build_basis(grid, 2), form_factor=FormFactor())


@pytest.mark.parametrize("name", ["scan_model", "symmetric_model"])
@pytest.mark.parametrize("p_mag", [0.5, 1.5])
def test_overlap_tridiagonal_path_matches_full_eigh(request, name, p_mag):
    model = request.getfixturevalue(name)
    assert model.basis.dimension <= model.dense_cutoff
    P = model.on_axis(p_mag)
    dist = _overlap_quietly(model, P, 0.05)
    energies, weights = _cluster_sums(dist.energies, dist.weights)
    ref_energies, ref_weights = _full_eigh_rows(model, P, 0.05, dist.window)
    np.testing.assert_allclose(energies, ref_energies, rtol=0, atol=1e-12)
    np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-12)


def _gauss_path(model):
    """The same model with a cutoff below its dimension: vacuum Lanczos."""
    return dataclasses.replace(model, dense_cutoff=10)


@pytest.fixture(scope="module")
def vacuum_measure():
    """The vacuum's spectral measure from a full eigh: (eigenvalues, weights)."""
    cache = {}

    def measure(model, P, g):
        key = (model.basis.dimension, tuple(P), g)
        if key not in cache:
            vals, vecs = scipy.linalg.eigh(model.hamiltonian(P, g).matrix.toarray())
            cache[key] = vals, vecs[0] ** 2
        return cache[key]

    return measure


@pytest.mark.parametrize("name", ["scan_model", "symmetric_model"])
@pytest.mark.parametrize("p_mag", [0.5, 1.5])
def test_overlap_gauss_rule_matches_vacuum_moments(
    request, vacuum_measure, name, p_mag
):
    model = request.getfixturevalue(name)
    P, g = model.on_axis(p_mag), 0.05
    center = 0.5 * float(P @ P)
    dist = _overlap_quietly(_gauss_path(model), P, g)
    # the whole rule, of which the rows are the nodes inside the window
    mat = model.hamiltonian(P, g).matrix
    alpha, beta, _ = _vacuum_lanczos(mat, dist.window, LANCZOS_MEMORY_BUDGET)
    rule, rule_weights = _gauss_rule(alpha, beta[:-1])
    assert dist.nodes == len(rule)
    lo, hi = dist.window
    inside = (rule >= lo) & (rule <= hi)
    np.testing.assert_array_equal(dist.energies, rule[inside])
    np.testing.assert_array_equal(dist.weights, rule_weights[inside])
    assert np.all(rule_weights >= 0.0)
    assert rule_weights.sum() <= 1.0 + 1e-12
    vals, weights = vacuum_measure(model, P, g)
    # moments of (H - c) / s, s the spectral radius about c: all at most 1
    scale = np.max(np.abs(vals - center))
    nodes, exact = (rule - center) / scale, (vals - center) / scale
    for k in range(2 * dist.nodes):
        assert weights @ exact**k == pytest.approx(
            rule_weights @ nodes**k, rel=0, abs=1e-10
        ), k
    # second-moment sum rule: ||(H - c) e_0||^2 = g^2 sum_m vol_m rho_m^2
    column = mat[:, 0].toarray().ravel()
    column[0] -= center
    moment = rule_weights @ (rule - center) ** 2
    assert moment == pytest.approx(column @ column, rel=1e-10)


@pytest.mark.parametrize("name", ["scan_model", "symmetric_model"])
@pytest.mark.parametrize("p_mag", [0.5, 1.5])
@pytest.mark.parametrize("placement", ["auto", "narrow", "below", "wide"])
def test_overlap_gauss_bracket_holds_dense_weight(
    request, vacuum_measure, placement, p_mag, name
):
    model = request.getfixturevalue(name)
    P, g = model.on_axis(p_mag), 0.05
    center = 0.5 * float(P @ P)
    if placement == "auto":
        window = "auto"
    else:
        half = 10.0 * golden_rule_estimate(model, P, g)
        window = {
            "narrow": (center - 0.1 * half, center + 0.1 * half),
            "below": (center - 2.0 * half, center - 0.5 * half),
            "wide": (center - 0.3, center + 0.3),
        }[placement]
    dist = _overlap_quietly(_gauss_path(model), P, g, window=window)
    lo, hi = dist.window
    vals, weights = vacuum_measure(model, P, g)
    exact = weights[(vals >= lo) & (vals <= hi)].sum()
    lower, upper = dist.bracket
    assert lower - 1e-12 <= exact <= upper + 1e-12
    assert upper - lower <= OVERLAP_BRACKET_WIDTH
    assert dist.nodes >= 1
    assert dist.captured_weight == pytest.approx(dist.weights.sum(), rel=1e-15)
    # the rows are the window's nodes, whose weight the bracket holds too
    assert np.all((dist.energies >= lo) & (dist.energies <= hi))
    assert lower - 1e-12 <= dist.captured_weight <= upper + 1e-12


def _empty_windows(vals, weights):
    """Windows of the vacuum's measure that hold no weight: below the
    spectrum, and the middle third of the gap between the two lowest levels
    that carry weight."""
    vals, weights = _cluster_sums(vals, weights)
    first, second = vals[weights > 1e-12][:2]
    third = (second - first) / 3.0
    return [(first - 2.0, first - 1.0), (first + third, second - third)]


@pytest.mark.parametrize("which", [0, 1])
def test_overlap_gauss_window_without_nodes(
    tmp_path, scan_model, vacuum_measure, which
):
    # the rule puts no node in a window that holds no weight: the result has
    # no rows, and the bracket certifies the window's weight below its width
    P, g = scan_model.on_axis(0.5), 0.05
    window = _empty_windows(*vacuum_measure(scan_model, P, g))[which]
    with pytest.warns(UserWarning, match="captured only 0.0000"):
        dist = vacuum_overlap_distribution(_gauss_path(scan_model), P, g, window=window)
    assert len(dist.energies) == len(dist.weights) == 0
    assert dist.nodes >= 1
    assert dist.captured_weight == 0.0 and dist.low_capture
    assert math.isnan(dist.mean) and math.isnan(dist.spread)
    lower, upper = dist.bracket
    assert lower == 0.0 and upper <= OVERLAP_BRACKET_WIDTH
    path = tmp_path / "overlap.csv"
    dist.to_csv(path)
    assert path.read_text().splitlines() == [
        "# captured_weight=0.0 low_capture=true",
        f"# rows=gauss_nodes nodes={dist.nodes} captured_bracket=0.0,{upper!r}",
        "energy,weight",
    ]


@pytest.mark.parametrize("p_mag", [0.5, 1.5])
def test_overlap_rows_lie_in_the_window_on_both_paths(scan_model, p_mag):
    # below threshold the window holds one eigenvalue: the dense path writes
    # that row alone, as the Gauss path writes its window's nodes alone, so
    # both captured weights are the window's weight
    P, g = scan_model.on_axis(p_mag), 0.05
    assert scan_model.basis.dimension <= scan_model.dense_cutoff
    dense = _overlap_quietly(scan_model, P, g)
    gauss = _overlap_quietly(_gauss_path(scan_model), P, g)
    assert dense.nodes is None and gauss.nodes is not None
    assert dense.window == gauss.window
    lo, hi = dense.window
    for dist in (dense, gauss):
        assert len(dist.energies) >= 1
        assert np.all((dist.energies >= lo) & (dist.energies <= hi))
    lower, upper = gauss.bracket
    assert lower - 1e-12 <= dense.captured_weight <= upper + 1e-12


def test_overlap_dense_window_without_eigenvalues(tmp_path, scan_model, vacuum_measure):
    # a window below the spectrum: the dense path writes the header-only file
    # the Gauss path writes, without its rule line
    P, g = scan_model.on_axis(0.5), 0.05
    window = _empty_windows(*vacuum_measure(scan_model, P, g))[0]
    with pytest.warns(UserWarning, match="captured only 0.0000"):
        dist = vacuum_overlap_distribution(scan_model, P, g, window=window)
    assert len(dist.energies) == len(dist.weights) == 0
    assert dist.nodes is None and dist.bracket is None
    assert dist.captured_weight == 0.0 and dist.low_capture
    assert math.isnan(dist.mean) and math.isnan(dist.spread)
    path = tmp_path / "overlap.csv"
    dist.to_csv(path)
    assert path.read_text().splitlines() == [
        "# captured_weight=0.0 low_capture=true",
        "energy,weight",
    ]


def test_overlap_gauss_rule_exact_when_krylov_space_closes():
    # four azimuthal nodes: the vacuum reaches only the symmetric sector, 12
    # of 45 dimensions.  A window edge on the ground state, an atom of weight
    # 0.8, keeps the bracket open, so Lanczos runs until that space closes
    grid = build_grid(RadialSpec(0.1, 1.0, 2, "geometric"), AngularSpec(1, 4))
    model = FiberModel(
        grid=grid,
        basis=build_basis(grid, 2),
        form_factor=FormFactor(cutoff=2.0),
        dense_cutoff=10,
    )
    P, g = model.on_axis(1.5), 0.3
    e0 = model.lowest(P, g).ground_energy
    dist = _overlap_quietly(model, P, g, window=(e0 - 1e-12, 1.3))
    vals, vecs = scipy.linalg.eigh(model.hamiltonian(P, g).matrix.toarray())
    energies, weights = _cluster_sums(vals, vecs[0] ** 2)
    carried = weights > 1e-14
    assert dist.nodes == np.sum(carried) < model.basis.dimension
    rows = carried & (energies >= e0 - 1e-12) & (energies <= 1.3)
    np.testing.assert_allclose(dist.energies, energies[rows], rtol=0, atol=1e-13)
    np.testing.assert_allclose(dist.weights, weights[rows], rtol=0, atol=1e-13)
    inside = weights[(energies >= e0 - 1e-12) & (energies <= 1.3)].sum()
    lower, upper = dist.bracket
    assert lower == upper == pytest.approx(inside, abs=1e-13)


def test_overlap_gauss_rule_free_theory_is_one_node(scan_model):
    # at g = 0 the vacuum is an eigenvector: Lanczos stops after one step
    P = scan_model.on_axis(1.5)
    dist = _overlap_quietly(_gauss_path(scan_model), P, 0.0)
    assert dist.nodes == 1
    assert dist.bracket == (1.0, 1.0)
    assert dist.energies.tolist() == [1.125]
    assert dist.weights.tolist() == [1.0]


def test_overlap_gauss_edge_far_outside_spectrum(scan_model):
    # at t = -1e6 the p_k(t) would overflow within a few dozen steps; the
    # Christoffel weight there is ~0 long before, so the run matches an edge
    # at -100
    P = scan_model.on_axis(1.5)
    near = _overlap_quietly(_gauss_path(scan_model), P, 0.05, window=(-100.0, 1.2))
    far = _overlap_quietly(_gauss_path(scan_model), P, 0.05, window=(-1e6, 1.2))
    assert far.nodes == near.nodes < 200
    assert far.bracket == near.bracket
