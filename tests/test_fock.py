import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from cerenkov_fiber import fock
from cerenkov_fiber.fock import (
    BasisSizeError,
    StateLookupError,
    build_basis,
    untruncated_dimension,
)
from cerenkov_fiber.grids import AngularSpec, MomentumGrid, RadialSpec, build_grid


def all_states(basis):
    return [basis.state_at(i) for i in range(basis.dimension)]


def transitions_oracle(basis):
    """Single-boson-removal table by a loop over the words, with a dict index."""
    states = all_states(basis)
    index = {word: i for i, word in enumerate(states)}
    rows, cols, modes, amps = [], [], [], []
    for j, word in enumerate(states):
        for pos, mode in enumerate(word):
            if pos > 0 and word[pos - 1] == mode:
                continue  # one transition per distinct mode
            reduced = word[:pos] + word[pos + 1 :]
            rows.append(j)
            cols.append(index[reduced])
            modes.append(mode)
            amps.append(math.sqrt(word.count(mode)))
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(modes, dtype=np.int64),
        np.asarray(amps, dtype=np.float64),
    )


def one_boson_oracle(basis):
    index = {word: i for i, word in enumerate(all_states(basis))}
    return np.array([index.get((m,), -1) for m in range(basis.grid.n_modes)])


def ladder_matrix(basis, mode: int) -> sparse.csr_matrix:
    """Creation matrix b†_mode on the truncated basis (real, sparse).

    Amplitude sqrt(n_mode + 1) toward the one-more-boson state; images outside
    the truncation are dropped.  Annihilation is the transpose.
    """
    if not 0 <= mode < basis.grid.n_modes:
        raise ValueError(f"mode {mode} out of range")
    rows, cols, modes, amps = basis.transitions()
    mask = modes == mode
    dim = basis.dimension
    return sparse.csr_matrix(
        (amps[mask], (rows[mask], cols[mask])), shape=(dim, dim)
    )


class LadderMatrices:
    """Lazy per-mode cache of creation matrices on a fixed basis."""

    def __init__(self, basis):
        self.basis = basis
        self._cache = {}

    def creation(self, mode: int) -> sparse.csr_matrix:
        if mode not in self._cache:
            self._cache[mode] = ladder_matrix(self.basis, mode)
        return self._cache[mode]

    def annihilation(self, mode: int) -> sparse.csr_matrix:
        return self.creation(mode).T.tocsr()


def two_mode_grid():
    grid = build_grid(RadialSpec(0.4, 1.0, 2, "linear"), AngularSpec(1, 1))
    return grid


def test_dimension_matches_stars_and_bars():
    grid = two_mode_grid()
    basis = build_basis(grid, 2)
    assert basis.dimension == 6  # 1 + 2 + 3
    assert basis.dimension == untruncated_dimension(2, 2)


@pytest.mark.parametrize(
    "m,n_max",
    [(2, 2), (3, 1), (3, 3), (4, 2), (6, 3)],
)
def test_dimension_formula_various(m, n_max):
    grid = build_grid(RadialSpec(0.2, 1.0, m, "linear"), AngularSpec(1, 1))
    basis = build_basis(grid, n_max)
    assert basis.dimension == sum(
        math.comb(m + n - 1, n) for n in range(n_max + 1)
    )


def test_vacuum_only_basis():
    grid = two_mode_grid()
    basis = build_basis(grid, 0)
    assert basis.dimension == 1
    assert basis.state_at(0) == ()


def test_three_modes_single_boson():
    grid = build_grid(RadialSpec(0.2, 1.0, 3, "linear"), AngularSpec(1, 1))
    basis = build_basis(grid, 1)
    assert basis.dimension == 4


def test_canonical_order_graded_then_lexicographic():
    grid = two_mode_grid()
    basis = build_basis(grid, 2)
    assert all_states(basis) == [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]


def test_index_roundtrip_all_states(small_basis):
    for i in range(small_basis.dimension):
        assert small_basis.index_of(small_basis.state_at(i)) == i
        assert small_basis.index_of(small_basis.occupation_of(i)) == i
    assert small_basis.index_of(()) == 0  # vacuum first


def test_index_lookup_failures(small_basis):
    n_max = small_basis.n_max
    with pytest.raises(StateLookupError):
        small_basis.index_of((0,) * (n_max + 1))  # violates N_max
    with pytest.raises(StateLookupError):
        small_basis.index_of((small_basis.grid.n_modes,))  # bad mode
    with pytest.raises(StateLookupError):
        small_basis.index_of({0: -1})


def test_energy_cut_prunes_and_orders():
    grid = build_grid(RadialSpec(0.2, 1.0, 4, "linear"), AngularSpec(1, 1))
    cut = 0.9
    basis = build_basis(grid, 3, e_cut=cut)
    full = build_basis(grid, 3)
    expected = [
        w for w in all_states(full) if sum(grid.magnitudes[m] for m in w) <= cut + 1e-12
    ]
    assert all_states(basis) == expected
    assert basis.dimension < full.dimension


def test_basis_budget_failure_reports_dimension(monkeypatch):
    grid = build_grid(RadialSpec(0.1, 1.0, 30, "linear"), AngularSpec(1, 1))
    monkeypatch.setattr(fock, "DEFAULT_DIM_BUDGET", 100)
    with pytest.raises(BasisSizeError) as err:
        build_basis(grid, 3)
    assert err.value.dimension > 100
    assert str(err.value.dimension) in str(err.value)
    with pytest.raises(BasisSizeError) as err:
        build_basis(grid, 3, e_cut=2.0)
    assert err.value.dimension > 100


def test_state_key_overflow_is_refused():
    # 10^4 modes of which only mode 0 fits under the cut, five times: six
    # states, but 5-boson keys in base 10^4 + 1 do not fit in int64
    k = np.zeros((10_000, 3))
    k[:, 2] = 1.0
    k[0, 2] = 0.01
    grid = MomentumGrid(
        k=k, vol=np.ones(10_000), k_min=0.01, k_max=1.0,
        radial_nodes=10_000, angular_nodes=1,
    )
    assert build_basis(grid, 4, e_cut=0.05).dimension == 5
    with pytest.raises(ValueError, match="overflow"):
        build_basis(grid, 5, e_cut=0.05)


def test_creation_on_vacuum(small_basis):
    bd = ladder_matrix(small_basis, 3)
    column = bd.toarray()[:, 0]
    target = small_basis.index_of((3,))
    assert column[target] == pytest.approx(1.0)
    assert np.count_nonzero(column) == 1


def test_annihilation_after_creation_counts(small_basis):
    # b b+ on a state with two bosons in the mode gives n+1 = 3 while the
    # three-boson image exists; here N_max = 2 truncates it away, so test
    # b+ b (always safe) and b b+ on the one-boson state instead.
    bd = ladder_matrix(small_basis, 1)
    number = (bd.T @ bd).diagonal()
    one = small_basis.index_of((1,))
    two = small_basis.index_of((1, 1))
    # b b+ = n+1 on states whose image survives truncation
    assert number[0] == pytest.approx(1.0)
    assert number[one] == pytest.approx(2.0)
    # truncated sector: the image of (1,1) leaves the basis, entry drops to 0
    assert number[two] == pytest.approx(0.0)
    # b+ b = n everywhere
    assert (bd @ bd.T).diagonal()[two] == pytest.approx(2.0)


def test_untruncated_sector_bbdag_eigenvalue():
    grid = two_mode_grid()
    basis = build_basis(grid, 3)
    bd = ladder_matrix(basis, 0)
    idx = basis.index_of((0, 0))  # n_0 = 2, image has 3 <= N_max
    assert (bd.T @ bd).diagonal()[idx] == pytest.approx(3.0)


def test_ccr_on_safe_sector(small_basis):
    dim = small_basis.dimension
    for mode in (0, 5):
        bd = ladder_matrix(small_basis, mode)
        comm = (bd.T @ bd - bd @ bd.T).toarray()
        safe = small_basis.boson_count < small_basis.n_max
        for i in np.nonzero(safe)[0]:
            row = np.zeros(dim)
            row[i] = 1.0
            assert comm[:, i] == pytest.approx(row)


def test_number_operator_from_ladders(small_basis):
    total = None
    for mode in range(small_basis.grid.n_modes):
        bd = ladder_matrix(small_basis, mode)
        term = bd @ bd.T  # b+ b = dGamma(1_m), exact even under truncation
        total = term if total is None else total + term
    dense = total.toarray()
    assert np.allclose(dense, np.diag(small_basis.boson_count), atol=1e-14)


def test_dgamma_diagonal_matches_direct_sum(small_basis):
    rng = np.random.default_rng(7)
    w = rng.uniform(0.0, 2.0, small_basis.grid.n_modes)
    diag = small_basis.dgamma_diagonal(w)
    for i in (0, 1, small_basis.dimension - 1):
        occ = small_basis.occupation_of(i)
        assert diag[i] == pytest.approx(sum(c * w[m] for m, c in occ.items()))


def test_ladder_matrices_cache(small_basis):
    ladders = LadderMatrices(small_basis)
    a = ladders.creation(2)
    b = ladders.creation(2)
    assert a is b
    assert (ladders.annihilation(2) != a.T).nnz == 0


def test_one_boson_ordinals(small_basis):
    ords = small_basis.one_boson_ordinals()
    for mode in range(small_basis.grid.n_modes):
        assert ords[mode] == small_basis.index_of((mode,))


grid_shapes = dict(
    radial=st.integers(1, 3),
    polar=st.integers(1, 2),
    azimuthal=st.integers(1, 2),
    n_max=st.integers(0, 4),
    e_cut=st.one_of(st.none(), st.floats(-0.2, 2.5)),
)


def random_basis(radial, polar, azimuthal, n_max, e_cut):
    grid = build_grid(RadialSpec(0.1, 1.0, radial), AngularSpec(polar, azimuthal))
    return build_basis(grid, n_max, e_cut)


@settings(max_examples=25, deadline=None)
@given(**grid_shapes)
def test_basis_equals_brute_force_filter(radial, polar, azimuthal, n_max, e_cut):
    basis = random_basis(radial, polar, azimuthal, n_max, e_cut)
    mags = basis.grid.magnitudes
    limit = math.inf if e_cut is None else e_cut + 1e-12 * max(1.0, abs(e_cut))
    expected = [
        word
        for n in range(n_max + 1)
        for word in itertools.combinations_with_replacement(range(len(mags)), n)
        if not word or sum(mags[m] for m in word) <= limit  # vacuum always in
    ]
    assert all_states(basis) == expected


@settings(max_examples=25, deadline=None)
@given(**grid_shapes)
def test_index_of_inverts_state_at(radial, polar, azimuthal, n_max, e_cut):
    basis = random_basis(radial, polar, azimuthal, n_max, e_cut)
    for i in range(basis.dimension):
        assert basis.index_of(basis.state_at(i)) == i


@settings(max_examples=25, deadline=None)
@given(**grid_shapes)
def test_transitions_match_loop_oracle(radial, polar, azimuthal, n_max, e_cut):
    basis = random_basis(radial, polar, azimuthal, n_max, e_cut)
    for got, want in zip(basis.transitions(), transitions_oracle(basis)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(basis.one_boson_ordinals(), one_boson_oracle(basis))


@settings(max_examples=25, deadline=None)
@given(block=st.integers(1, 40), **grid_shapes)
def test_candidate_blocks_do_not_change_basis(
    block, radial, polar, azimuthal, n_max, e_cut
):
    whole = random_basis(radial, polar, azimuthal, n_max, e_cut)
    with mock.patch.object(fock, "CANDIDATE_BLOCK", block):
        blocked = random_basis(radial, polar, azimuthal, n_max, e_cut)
    assert np.array_equal(blocked.words, whole.words)
    for a, b in zip(blocked.transitions(), whole.transitions()):
        assert np.array_equal(a, b)
