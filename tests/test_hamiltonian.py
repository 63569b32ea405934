import numpy as np
import pytest
from conftest import index_of, single_mode_grid
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import (
    build_displacement,
    build_fiber_hamiltonian,
    build_interaction,
    displacement_expectation,
    free_fiber_diagonal,
    interaction_coefficients,
)
from cerenkov_fiber.spectra import FiberModel


def _diagonal_operator(values: np.ndarray) -> sparse.csr_matrix:
    return sparse.diags(values, format="csr")


def build_free_fiber(basis, P) -> sparse.csr_matrix:
    return _diagonal_operator(free_fiber_diagonal(basis, P))


def build_field_momentum(basis):
    """Three diagonal operators, the components of the field momentum."""
    return tuple(
        _diagonal_operator(basis.total_momentum[:, d]) for d in range(3)
    )


def build_field_energy(basis) -> sparse.csr_matrix:
    return _diagonal_operator(basis.free_field_energy)


def build_number_weighted(basis, mode_weights) -> sparse.csr_matrix:
    """dGamma(w) for a per-mode weight array."""
    return _diagonal_operator(basis.dgamma_diagonal(mode_weights))


def max_asymmetry(matrix) -> float:
    diff = matrix - matrix.T
    return 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))


def expectation(matrix, vec: np.ndarray) -> float:
    return float(vec @ (matrix @ vec))


def dump_triplets(matrix, path) -> None:
    """Text triplet dump (row, col, value) for external verification."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        for i in order:
            fh.write(f"{coo.row[i]} {coo.col[i]} {repr(float(coo.data[i]))}\n")


def test_free_fiber_vacuum(small_basis):
    diag = build_free_fiber(small_basis, (0.5, 0, 0)).diagonal()
    assert diag[0] == pytest.approx(0.125)


def test_free_fiber_one_and_two_boson_values(wide_ff):
    grid = single_mode_grid((1.0, 0.0, 0.0), vol=0.3)
    basis = build_basis(grid, 2)
    one = index_of(basis, (0,))
    two = index_of(basis, (0, 0))
    diag = free_fiber_diagonal(basis, (1.5, 0, 0))
    assert diag[one] == pytest.approx(0.5**2 / 2 + 1.0)  # 1.125
    diag2 = free_fiber_diagonal(basis, (2.0, 0, 0))
    k05 = single_mode_grid((0.5, 0.0, 0.0), vol=0.3)
    basis05 = build_basis(k05, 2)
    diag05 = free_fiber_diagonal(basis05, (2.0, 0, 0))
    assert diag05[index_of(basis05, (0, 0))] == pytest.approx(1.5)  # (2-1)^2/2 + 1
    assert diag2[two] == pytest.approx(2.0)  # (2-2)^2/2 + 2


def test_interaction_single_mode_matrix_element(single_mode_setup):
    grid, basis, ff = single_mode_setup
    phi = build_interaction(basis, ff).matrix.toarray()
    expected = np.sqrt(0.3) * ff.value(1.0)
    one = index_of(basis, (0,))
    assert phi[one, 0] == pytest.approx(expected)
    assert phi[0, one] == pytest.approx(expected)
    assert phi[0, 0] == 0.0  # <vacuum, phi vacuum> = 0


def test_modes_beyond_cutoff_give_zero_rows(default_ff):
    grid = build_grid(RadialSpec(0.5, 1.3, 4, "linear"), AngularSpec(2, 1))
    basis = build_basis(grid, 1)
    phi = build_interaction(basis, default_ff).matrix.tocsr()
    dead_modes = np.nonzero(grid.magnitudes >= default_ff.cutoff)[0]
    assert len(dead_modes) > 0
    for m in dead_modes:
        row = index_of(basis, (int(m),))
        assert phi[row].nnz == 0


def test_hamiltonian_reduces_to_free_at_zero_coupling(small_basis, default_ff):
    P = (0.5, 0.0, 0.0)
    h = build_fiber_hamiltonian(small_basis, default_ff, P, 0.0).matrix
    free = build_free_fiber(small_basis, P)
    assert (h != free).nnz == 0


def test_two_by_two_resonant_block(single_mode_setup):
    grid, basis, ff = single_mode_setup
    g = 0.3
    h = build_fiber_hamiltonian(basis, ff, (1.5, 0, 0), g).matrix.toarray()
    coupling = g * np.sqrt(0.3) * ff.value(1.0)
    expected = np.array([[1.125, coupling], [coupling, 1.125]])
    assert h == pytest.approx(expected, abs=1e-15)
    vals = np.linalg.eigvalsh(h)
    assert vals == pytest.approx([1.125 - coupling, 1.125 + coupling], abs=1e-12)


def test_exact_symmetry(small_basis, default_ff):
    h = build_fiber_hamiltonian(small_basis, default_ff, (0.3, 0.1, 0.7), 0.2).matrix
    assert max_asymmetry(h) == 0.0


def test_sector_structure(small_basis, default_ff):
    h = build_fiber_hamiltonian(small_basis, default_ff, (0.5, 0, 0), 0.2)
    coo = h.matrix.tocoo()
    counts = small_basis.boson_count
    diff = np.abs(counts[coo.row] - counts[coo.col])
    assert np.all(diff <= 1)


def test_field_momentum_energy_and_number(small_grid, small_basis, default_ff):
    pf = build_field_momentum(small_basis)
    hf = build_field_energy(small_basis)
    n_op = build_number_weighted(small_basis, np.ones(small_grid.n_modes))
    # vacuum row
    assert all(op.diagonal()[0] == 0.0 for op in pf)
    assert hf.diagonal()[0] == 0.0
    assert n_op.diagonal()[0] == 0.0
    # one boson at a known mode
    mode = 2
    idx = index_of(small_basis, (mode,))
    kvec = small_grid.k[mode]
    for d in range(3):
        assert pf[d].diagonal()[idx] == pytest.approx(kvec[d])
    assert hf.diagonal()[idx] == pytest.approx(np.linalg.norm(kvec))
    assert n_op.diagonal()[idx] == pytest.approx(1.0)


def test_rotational_covariance_under_azimuthal_relabeling(default_ff):
    grid = build_grid(RadialSpec(0.2, 1.0, 3, "geometric"), AngularSpec(2, 4))
    basis = build_basis(grid, 2)
    h = build_fiber_hamiltonian(basis, default_ff, (0.0, 0.0, 0.6), 0.15)
    vals = np.linalg.eigvalsh(h.matrix.toarray())

    # roll the azimuthal index: same mode set, relabeled
    perm = []
    azim = 4
    for flat in range(grid.n_modes):
        base, l = divmod(flat, azim)
        perm.append(base * azim + (l + 1) % azim)
    perm = np.array(perm)
    rolled = MomentumGrid(
        k=grid.k[perm],
        vol=grid.vol[perm],
        radial_edges=grid.radial_edges,
    )
    basis2 = build_basis(rolled, 2)
    h2 = build_fiber_hamiltonian(basis2, default_ff, (0.0, 0.0, 0.6), 0.15)
    vals2 = np.linalg.eigvalsh(h2.matrix.toarray())
    assert vals2 == pytest.approx(vals, abs=1e-10)


def test_displacement_expectation_matches_matrix(small_grid, small_basis, default_ff):
    rng = np.random.default_rng(3)
    coeffs = interaction_coefficients(small_grid, default_ff)
    psi = rng.normal(size=small_basis.dimension)
    psi /= np.linalg.norm(psi)
    op = build_displacement(small_basis, coeffs).matrix
    assert displacement_expectation(small_basis, coeffs, psi) == pytest.approx(
        expectation(op, psi), abs=1e-12
    )


def test_triplet_dump(tmp_path, single_mode_setup):
    grid, basis, ff = single_mode_setup
    h = build_fiber_hamiltonian(basis, ff, (1.5, 0, 0), 0.3)
    path = tmp_path / "h.txt"
    dump_triplets(h.matrix, path)
    rows = [line.split() for line in path.read_text().strip().split("\n")]
    dense = h.matrix.toarray()
    rebuilt = np.zeros_like(dense)
    for i, j, v in rows:
        rebuilt[int(i), int(j)] = float(v)
    assert rebuilt == pytest.approx(dense, abs=0.0)


def test_params_validation(small_basis, default_ff):
    with pytest.raises(ValueError):
        build_fiber_hamiltonian(small_basis, default_ff, (np.inf, 0, 0), 0.1)


random_models = dict(
    radial=st.integers(1, 3),
    polar=st.integers(1, 2),
    azimuthal=st.integers(1, 3),
    n_max=st.integers(1, 3),
    e_cut=st.one_of(st.none(), st.floats(0.0, 2.5)),
    P=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    g=st.floats(-1.0, 1.0),
)


def random_model(radial, polar, azimuthal, n_max, e_cut):
    grid = build_grid(RadialSpec(0.1, 1.0, radial), AngularSpec(polar, azimuthal))
    basis = build_basis(grid, n_max, e_cut)
    return FiberModel(grid, basis, FormFactor(cutoff=2.0))


@settings(max_examples=25, deadline=None)
@given(**random_models)
def test_hamiltonian_exactly_symmetric(radial, polar, azimuthal, n_max, e_cut, P, g):
    model = random_model(radial, polar, azimuthal, n_max, e_cut)
    assert max_asymmetry(model.hamiltonian(P, g).matrix) == 0.0


@settings(max_examples=25, deadline=None)
@given(**random_models)
def test_ground_energy_below_bare_energy(radial, polar, azimuthal, n_max, e_cut, P, g):
    # the vacuum is a trial state with energy P^2/2
    model = random_model(radial, polar, azimuthal, n_max, e_cut)
    P = np.asarray(P, dtype=float)
    e0 = model.lowest(P, g).ground_energy
    assert e0 <= 0.5 * float(P @ P) + 1e-12
