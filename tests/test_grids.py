import numpy as np
import pytest

from cerenkov_fiber import grids
from cerenkov_fiber.grids import (
    AngularSpec,
    GridError,
    MomentumGrid,
    RadialSpec,
    build_grid,
)


def shell_volume(k_min, k_max):
    return 4.0 * np.pi / 3.0 * (k_max**3 - k_min**3)


def grid_to_csv(grid: MomentumGrid, path) -> None:
    """Dump modes as CSV rows k_x,k_y,k_z,vol with round-trip floats."""
    lines = ["k_x,k_y,k_z,vol"]
    for row, v in zip(grid.k, grid.vol):
        lines.append(",".join(repr(float(x)) for x in (*row, v)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_radial_shell_volume_consistency():
    grid = build_grid(RadialSpec(0.1, 1.0, 8, "geometric"), AngularSpec(1, 1))
    assert grid.n_modes == 8
    # single polar node carries the full 4 pi angular weight
    assert grid.vol.sum() == pytest.approx(shell_volume(0.1, 1.0), rel=1e-12)
    assert grid.vol.sum() == pytest.approx(shell_volume(0.1, 1.0), rel=0.10)


def test_single_degenerate_node():
    grid = build_grid(RadialSpec(1.0, 1.0, 1, "linear"), AngularSpec(1, 1))
    assert grid.n_modes == 1
    assert np.linalg.norm(grid.k[0]) == pytest.approx(1.0)
    # unit radial width convention: vol = r^2 * (4 pi angular weight)
    assert grid.vol[0] == pytest.approx(1.0 * 4.0 * np.pi)


def test_refinement_halves_max_cell_width():
    coarse = build_grid(RadialSpec(0.1, 1.0, 8, "geometric"), AngularSpec(1, 1))
    fine = build_grid(RadialSpec(0.1, 1.0, 16, "geometric"), AngularSpec(1, 1))
    ratio_coarse = coarse.radial_edges[1] / coarse.radial_edges[0]
    ratio_fine = fine.radial_edges[1] / fine.radial_edges[0]
    assert ratio_fine == pytest.approx(np.sqrt(ratio_coarse), rel=1e-12)
    shrink = fine.max_radial_width / coarse.max_radial_width
    assert 0.45 < shrink < 0.56


def test_invariants_magnitudes_and_distinctness():
    grid = build_grid(RadialSpec(0.05, 1.0, 5, "geometric"), AngularSpec(3, 4))
    mags = grid.magnitudes
    assert np.all(mags >= 0.05 - 1e-12)
    assert np.all(mags <= 1.0 + 1e-12)
    assert np.all(grid.vol > 0)
    seen = {tuple(np.round(row, 12)) for row in grid.k}
    assert len(seen) == grid.n_modes


@pytest.mark.parametrize("spacing", ["geometric", "linear"])
def test_quadrature_of_radius_improves_under_refinement(spacing):
    exact = np.pi * (1.0**4 - 0.1**4)  # integral of |k| over the shell
    errors = []
    for count in (8, 16, 32):
        grid = build_grid(RadialSpec(0.1, 1.0, count, spacing), AngularSpec(2, 1))
        approx = float(np.sum(grid.vol * grid.magnitudes))
        errors.append(abs(approx - exact))
    assert errors[0] < 0.05 * exact
    assert errors[2] < errors[1] < errors[0]


def test_angular_quadrature_exact_for_polynomial_moments():
    # Gauss-Legendre in cos(theta) integrates cos^2 exactly, so the angular
    # average of (k_z/|k|)^2 is exactly 1/3 of the shell volume.
    grid = build_grid(RadialSpec(0.5, 1.0, 4, "linear"), AngularSpec(6, 4))
    u2 = (grid.k[:, 2] / grid.magnitudes) ** 2
    approx = float(np.sum(grid.vol * u2))
    assert approx == pytest.approx(shell_volume(0.5, 1.0) / 3.0, rel=1e-12)


def test_validation_errors(monkeypatch):
    with pytest.raises(GridError):
        RadialSpec(0.0, 1.0, 4)
    with pytest.raises(GridError):
        RadialSpec(-0.1, 1.0, 4)
    with pytest.raises(GridError):
        RadialSpec(0.5, 0.4, 4)
    with pytest.raises(GridError):
        RadialSpec(0.1, 1.0, 0)
    with pytest.raises(GridError):
        RadialSpec(0.1, 1.0, 4, "cubic")
    with pytest.raises(GridError):
        AngularSpec(0, 1)
    monkeypatch.setattr(grids, "DEFAULT_MODE_BUDGET", 500)
    with pytest.raises(GridError):
        build_grid(RadialSpec(0.1, 1.0, 100, "linear"), AngularSpec(10, 10))


def test_single_mode_constructor():
    grid = MomentumGrid.single_mode((0.0, 0.0, 0.7), vol=0.25)
    assert grid.n_modes == 1
    assert grid.vol[0] == 0.25
    with pytest.raises(GridError):
        MomentumGrid.single_mode((0.0, 0.0, 0.0), vol=0.25)


def test_csv_dump_round_trips(tmp_path):
    grid = build_grid(RadialSpec(0.1, 1.0, 3, "linear"), AngularSpec(2, 1))
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "k_x,k_y,k_z,vol"
    assert len(rows) == grid.n_modes + 1
    first = [float(x) for x in rows[1].split(",")]
    assert first[:3] == pytest.approx(list(grid.k[0]), abs=0.0)
    assert first[3] == grid.vol[0]
