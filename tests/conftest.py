import numpy as np
import pytest

from cerenkov_fiber.fock import build_basis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import (
    AngularSpec,
    GridError,
    MomentumGrid,
    RadialSpec,
    build_grid,
)
from cerenkov_fiber.observables import _normalized
from cerenkov_fiber.spectra import DEGENERACY_TOL, FiberModel
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
    grid = single_mode_grid((1.0, 0.0, 0.0), vol=0.3)
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


def single_mode_grid(k, vol: float) -> MomentumGrid:
    """One explicit mode with a declared cell volume (toy models, oracles)."""
    k = np.asarray(k, dtype=float).reshape(1, 3)
    mag = float(np.linalg.norm(k))
    if mag <= 0.0 or vol <= 0.0:
        raise GridError("single mode needs |k| > 0 and vol > 0")
    return MomentumGrid(
        k=k,
        vol=np.array([float(vol)]),
        k_min=mag,
        k_max=mag,
        radial_nodes=1,
        angular_nodes=1,
    )


def max_radial_width(grid) -> float:
    """Widest radial cell; the grid's energy-resolution scale."""
    if grid.radial_edges is None or len(grid.radial_edges) < 2:
        return 0.0
    return float(np.max(np.diff(grid.radial_edges)))


class StateLookupError(KeyError):
    """Occupation is not an admissible basis state."""


def _canonical_tuple(occupation, n_modes: int) -> tuple:
    """Normalize an occupation to the sorted mode-index word.

    Accepts a dict {mode: count} or an iterable of mode indices with
    repetition (e.g. (3, 3, 7) for two bosons at mode 3 and one at mode 7).
    """
    if isinstance(occupation, dict):
        word = []
        for mode, count in sorted(occupation.items()):
            if count < 0:
                raise StateLookupError(f"negative count for mode {mode}")
            word.extend([int(mode)] * int(count))
    else:
        word = sorted(int(m) for m in occupation)
    if any(not 0 <= m < n_modes for m in word):
        raise StateLookupError(f"occupation {occupation!r} has out-of-range modes")
    return tuple(word)


def index_of(basis, occupation) -> int:
    """Ordinal of an occupation, by binary search on the basis's state keys."""
    word = _canonical_tuple(occupation, basis.grid.n_modes)
    width = basis.words.shape[1]
    if len(word) <= width:
        row = np.full((1, width), -1, dtype=np.int64)
        row[0, : len(word)] = word
        key = basis._key(row)[0]
        i = int(np.searchsorted(basis._keys, key))
        if i < basis.dimension and basis._keys[i] == key:
            return i
    raise StateLookupError(f"occupation {occupation!r} is not in the truncated basis")


def state_at(basis, ordinal: int) -> tuple:
    """Nondecreasing mode-index word of basis state `ordinal`."""
    row = basis.words[ordinal]
    return tuple(row[row >= 0].tolist())


def occupation_of(basis, ordinal: int) -> dict:
    occ = {}
    for mode in state_at(basis, ordinal):
        occ[mode] = occ.get(mode, 0) + 1
    return occ


def vacuum_vector(basis) -> np.ndarray:
    return unit_vector(basis.dimension, 0)


def expect_field_energy(state, basis) -> float:
    psi = _normalized(state, "expect_field_energy")
    return float(np.sum(psi * psi * basis.free_field_energy))


def expect_field_momentum_sq(state, basis) -> float:
    """<(P^f)^2>: diagonal, the squared vector sum per basis state."""
    psi = _normalized(state, "expect_field_momentum_sq")
    sq = np.einsum("sd,sd->s", basis.total_momentum, basis.total_momentum)
    return float(np.sum(psi * psi * sq))


def cluster_sums(energies, weights):
    """Energies of DEGENERACY_TOL clusters and the weight summed over each."""
    order = np.argsort(energies)
    energies, weights = energies[order], weights[order]
    breaks = np.nonzero(np.diff(energies) > DEGENERACY_TOL)[0] + 1
    starts = np.concatenate([[0], breaks])
    return energies[starts], np.add.reduceat(weights, starts)


def empty_windows(vals, weights):
    """Windows of the vacuum's measure that hold no weight: below the
    spectrum, and the middle third of the gap between the two lowest levels
    that carry weight."""
    vals, weights = cluster_sums(vals, weights)
    first, second = vals[weights > 1e-12][:2]
    third = (second - first) / 3.0
    return [(first - 2.0, first - 1.0), (first + third, second - third)]
