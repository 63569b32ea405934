import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from cerenkov_fiber.config import RunConfig, make_model
from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import AngularSpec, RadialSpec, build_grid
from cerenkov_fiber.hamiltonian import build_fiber_hamiltonian
from cerenkov_fiber.solver import (
    EigensolverError,
    SchurBlocks,
    _certify,
    lowest_eigenpairs,
    trailing_diagonal_start,
)


def random_with_trailing_diagonal(dim=200, t=60, seed=42):
    """Random symmetric matrix whose rows and columns t.. form a diagonal block."""
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    sym = (a + a.T) / 2.0
    sym[t:, t:] = np.diag(np.diag(sym)[t:])
    return sym


def test_diagonal_matrix_picks_smallest():
    mat = sparse.diags([3.0, 1.0, 2.0]).tocsr()
    res = lowest_eigenpairs(mat, 1, tol=1e-12)
    assert res.eigenvalues[0] == 1.0
    assert res.eigenvectors[:, 0] == pytest.approx([0.0, 1.0, 0.0])
    assert res.method == "diagonal"
    assert res.residual_norms[0] == 0.0


def test_two_by_two_resonant_closed_form(single_mode_setup):
    grid, basis, ff = single_mode_setup
    g = 0.3
    h = build_fiber_hamiltonian(basis, ff, (1.5, 0, 0), g)
    res = lowest_eigenpairs(h, 1, tol=1e-12)
    coupling = g * np.sqrt(0.3) * ff.value(1.0)
    assert res.eigenvalues[0] == pytest.approx(1.125 - coupling, abs=1e-12)


def test_dense_and_iterative_agree_on_random_symmetric():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(200, 200))
    full = (a + a.T) / 2.0
    # the same size with rows and columns 60.. diagonal: the solver takes
    # the Schur path when the cutoff lies between the block (60) and the
    # matrix, LOBPCG when it lies below the block
    blocked = random_with_trailing_diagonal(t=60)
    cases = (
        (full, "lobpcg", 0),
        (blocked, "lobpcg", 0),
        (blocked, "schur", 100),
    )
    for sym, method, cutoff in cases:
        dense = scipy.linalg.eigvalsh(sym, subset_by_index=(0, 4))
        res = lowest_eigenpairs(
            sparse.csr_matrix(sym), 5, tol=1e-9, dense_cutoff=cutoff
        )
        assert res.method == method
        assert res.eigenvalues == pytest.approx(dense, abs=1e-8)
        assert np.all(res.residual_norms <= 1e-9)
    diag = res.diagnostics
    assert diag["schur_size"] == 60
    assert diag["shift"] < dense[0]
    assert diag["count_top_block"] + diag["count_schur"] == 5


def test_schur_recovers_multiplet_partners_on_symmetric_grid():
    # four azimuthal nodes: single-vector Lanczos from the uniform start
    # finds one vector of each doublet, and the deflated restarts the rest
    model = make_model(
        RunConfig(radial_count=6, polar_count=3, azimuthal_count=4).validate()
    )
    h = model.hamiltonian(model.on_axis(0.5), 0.1).matrix
    exact = scipy.linalg.eigvalsh(h.toarray(), subset_by_index=(0, 7))
    for count in (4, 8):
        res = lowest_eigenpairs(h, count, tol=1e-9)
        assert res.method == "schur"
        assert res.diagnostics["deflated_restarts"] >= 1
        assert res.eigenvalues == pytest.approx(exact[:count], abs=1e-10)
        gram = res.eigenvectors.T @ res.eigenvectors
        assert gram == pytest.approx(np.eye(count), abs=1e-8)


@pytest.mark.parametrize(
    "config, p_mag, options",
    [
        # off the axis the levels come in doublets; ARPACK from a uniform
        # start returned excited levels off by 2.5e-2 and 1.3e-3 here
        (dict(azimuthal_count=3), 0.5, {"dense_cutoff": 0}),
        (dict(azimuthal_count=2), 1.5, {"dense_cutoff": 0}),
        # n_max = 3 with the Schur complement (45 rows) over the cutoff
        (dict(polar_count=2, radial_count=4, n_max=3), 0.5, {"dense_cutoff": 40}),
    ],
)
def test_lobpcg_finds_multiplet_partners(config, p_mag, options):
    config = {"radial_count": 6, "polar_count": 3, **config}
    model = make_model(RunConfig(**config).validate())
    h = model.hamiltonian(model.on_axis(p_mag), 0.1).matrix
    exact = scipy.linalg.eigvalsh(h.toarray(), subset_by_index=(0, 3))
    res = lowest_eigenpairs(h, 4, tol=1e-9, **options)
    assert res.method == "lobpcg"
    assert res.eigenvalues == pytest.approx(exact, abs=1e-10)
    assert res.diagnostics["certified"] is False
    assert res.diagnostics["iterations"] >= 1


def test_lobpcg_stops_when_requested_pairs_converge():
    # levels 3 to 12 form a cluster 1e-6 wide, where the two guard vectors
    # of a count = 2 block converge only after hundreds of steps; the run
    # stops on the two requested pairs instead of waiting for them
    n = 400
    diag = np.concatenate(
        [[0.0, 1.0], 2.0 + 1e-6 * np.arange(10), np.linspace(3.0, 10.0, n - 12)]
    )
    coupling = 0.02 * sparse.random(n, n, density=0.02, random_state=4)
    mat = sparse.csr_matrix(sparse.diags(diag) + coupling + coupling.T)
    exact = scipy.linalg.eigvalsh(mat.toarray(), subset_by_index=(0, 3))
    res = lowest_eigenpairs(mat, 2, tol=1e-9, dense_cutoff=0)
    assert res.diagnostics["block"] == 4
    assert res.diagnostics["iterations"] < 30
    assert res.eigenvalues == pytest.approx(exact[:2], abs=1e-12)
    cluster = lowest_eigenpairs(mat, 4, tol=1e-9, dense_cutoff=0)
    assert cluster.eigenvalues == pytest.approx(exact, abs=1e-12)
    assert cluster.diagnostics["iterations"] > 100


def test_certificate_mismatch_raises(monkeypatch):
    mat = sparse.csr_matrix(random_with_trailing_diagonal(t=60))
    true_count = SchurBlocks.count_below

    def one_more(self, s):
        top, inertia = true_count(self, s)
        return top, inertia + 1  # as if a pair below had been missed

    monkeypatch.setattr(SchurBlocks, "count_below", one_more)
    with pytest.raises(EigensolverError, match="certificate"):
        lowest_eigenpairs(mat, 5, tol=1e-9, dense_cutoff=100)


def test_certificate_accepts_a_cut_multiplet_and_rejects_a_gap():
    # three azimuthal nodes: levels off the axis come in exact doublets
    model = make_model(
        RunConfig(radial_count=6, polar_count=3, azimuthal_count=3).validate()
    )
    h = model.hamiltonian(model.on_axis(0.5), 0.1).matrix
    exact = scipy.linalg.eigvalsh(h.toarray(), subset_by_index=(0, 9))
    cut = 1 + int(np.argmax(np.diff(exact) < 1e-12))  # exact[cut] ties exact[cut - 1]
    assert cut > 1 and exact[cut] - exact[cut - 1] < 1e-12
    blocks = SchurBlocks(h, trailing_diagonal_start(h))
    record = _certify(blocks, exact[:cut], 1e-9)
    assert record["count_top_block"] + record["count_schur"] == cut + 1
    with pytest.raises(EigensolverError, match="certificate"):
        _certify(blocks, exact[1 : cut + 1], 1e-9)  # the ground level missed


@settings(max_examples=25, deadline=None)
@given(
    radial=st.integers(2, 4),
    polar=st.integers(1, 2),
    azimuthal=st.integers(1, 2),
    n_max=st.integers(1, 3),
    cut_e=st.one_of(st.none(), st.floats(0.3, 3.0)),
    p=st.floats(0.0, 2.0),
    g=st.floats(0.01, 1.0),
    s=st.floats(-0.5, 3.0),
)
def test_schur_count_matches_dense_spectrum(
    radial, polar, azimuthal, n_max, cut_e, p, g, s
):
    grid = build_grid(RadialSpec(0.1, 1.0, radial), AngularSpec(polar, azimuthal))
    basis = build_basis(grid, n_max, cut_e)
    ff = FormFactor(cutoff=2.0)
    mat = build_fiber_hamiltonian(basis, ff, (0.0, 0.0, p), g).matrix
    t = trailing_diagonal_start(mat)
    below_n_max = int(np.count_nonzero(basis.boson_count < n_max))
    assert t <= below_n_max
    if cut_e is None:
        assert t == below_n_max
    assume(t > 0)
    blocks = SchurBlocks(mat, t)
    eigs = scipy.linalg.eigvalsh(mat.toarray())
    assume(np.min(np.abs(np.concatenate([eigs, blocks.top]) - s)) > 1e-6)
    assert sum(blocks.count_below(s)) == np.count_nonzero(eigs < s)


def test_eigenvectors_orthonormal(small_model):
    h = small_model.hamiltonian(small_model.on_axis(0.5), 0.2)
    res = lowest_eigenpairs(h, 4, tol=1e-10)
    assert res.method == "dense"
    gram = res.eigenvectors.T @ res.eigenvectors
    assert gram == pytest.approx(np.eye(4), abs=1e-10)
    assert np.all(np.diff(res.eigenvalues) >= -1e-12)


def test_residuals_verified(small_model):
    h = small_model.hamiltonian(small_model.on_axis(0.4), 0.1)
    res = lowest_eigenpairs(h, 2, tol=1e-9)
    mat = h.matrix
    for j in range(2):
        v = res.eigenvectors[:, j]
        r = np.linalg.norm(mat @ v - res.eigenvalues[j] * v)
        assert r <= 1e-9
        assert res.residual_norms[j] == pytest.approx(r, abs=1e-12)


def test_nonconvergence_raises_with_partials():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(400, 400))
    sym = sparse.csr_matrix((a + a.T) / 2.0)
    with pytest.raises(EigensolverError) as err:
        lowest_eigenpairs(sym, 6, tol=1e-13, maxiter=2, dense_cutoff=0)
    # the error carries whatever converged, possibly nothing
    assert err.value.best_eigenvalues is not None


def test_count_validation():
    mat = sparse.diags([1.0, 2.0]).tocsr()
    with pytest.raises(ValueError):
        lowest_eigenpairs(mat, 0, tol=1e-9)
    with pytest.raises(ValueError):
        lowest_eigenpairs(mat, 5, tol=1e-9)
    with pytest.raises(ValueError):
        lowest_eigenpairs(mat, 1, tol=-1.0)


def test_deterministic_lobpcg_runs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(300, 300))
    sym = sparse.csr_matrix((a + a.T) / 2.0)
    r1 = lowest_eigenpairs(sym, 3, tol=1e-10, dense_cutoff=0)
    r2 = lowest_eigenpairs(sym, 3, tol=1e-10, dense_cutoff=0)
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
