import numpy as np
import pytest
from conftest import mode_weights

from cerenkov_fiber.weights import (
    CONE_SLOPE_CONSTANT,
    DEFAULT_SHELL_SLOPE_CONSTANT,
    ConeSpec,
    ShellSpec,
    cone_from_coupling,
    cone_weight,
    cone_weight_derivative_u,
    shell_weight,
    shell_weight_derivative,
)

Z = np.array([0.0, 0.0, 1.0])


def tabulate_shell(spec: ShellSpec, path, samples: int = 512) -> None:
    """CSV table (r, weight) across the shell support, for plotting."""
    a0, _, _, b0 = spec.edges
    r = np.linspace(0.5 * a0, 1.2 * b0, samples)
    with open(path, "w") as fh:
        fh.write("r,weight\n")
        for ri, wi in zip(r, shell_weight(spec, r)):
            fh.write(f"{repr(float(ri))},{repr(float(wi))}\n")


def tabulate_cone(spec: ConeSpec, path, samples: int = 512) -> None:
    """CSV table (cos_theta, weight) over [-1, 1], for plotting."""
    u = np.linspace(-1.0, 1.0, samples)
    khat = np.outer(u, spec.axis) + np.sqrt(np.maximum(1 - u**2, 0.0))[:, None] * (
        _any_orthonormal(spec.axis)[None, :]
    )
    w = cone_weight(spec, khat)
    with open(path, "w") as fh:
        fh.write("cos_theta,weight\n")
        for ui, wi in zip(u, w):
            fh.write(f"{repr(float(ui))},{repr(float(wi))}\n")


def _any_orthonormal(axis: np.ndarray) -> np.ndarray:
    trial = np.array([1.0, 0.0, 0.0])
    if abs(axis @ trial) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    perp = trial - (trial @ axis) * axis
    return perp / np.linalg.norm(perp)


def test_shell_plateau_and_support():
    spec = ShellSpec(2)
    assert shell_weight(spec, 0.4) == 1.0  # inside [1/3, 1/2]
    assert shell_weight(spec, 1.0) == 0.0  # beyond 3/4
    assert shell_weight(spec, 0.05) == 0.0  # below 1/6
    r = np.linspace(0.01, 1.2, 2000)
    w = shell_weight(spec, r)
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_shell_zero_outside_mandated_support():
    for n in (1, 2, 3, 5):
        spec = ShellSpec(n)
        assert shell_weight(spec, 1.0 / (2 * (n + 1))) == 0.0
        assert shell_weight(spec, 3.0 / (2 * n)) == 0.0
        assert shell_weight(spec, 1.0 / (n + 1)) == 1.0
        assert shell_weight(spec, 1.0 / n) == 1.0


def test_shell_derivative_bound_dense_sampling():
    for n in (1, 2, 3, 6):
        spec = ShellSpec(n)
        r = np.linspace(1e-4, 2.0, 200_001)
        d = shell_weight_derivative(spec, r)
        assert np.max(np.abs(d)) <= DEFAULT_SHELL_SLOPE_CONSTANT * n


def test_shell_derivative_matches_fd():
    spec = ShellSpec(2)
    h = 1e-7
    for r in (0.17, 0.3, 0.52, 0.7):
        fd = (shell_weight(spec, r + h) - shell_weight(spec, r - h)) / (2 * h)
        assert shell_weight_derivative(spec, r) == pytest.approx(fd, abs=1e-5)


def test_adjacent_plus_two_shell_supports_disjoint():
    r = np.linspace(1e-4, 2.0, 100_001)
    for n in (1, 2, 3, 4):
        lo = shell_weight(ShellSpec(n + 2), r)
        hi = shell_weight(ShellSpec(n), r)
        assert np.max(lo * hi) == 0.0


def test_shell_plateaus_tile_unit_interval():
    n_max = 6
    r = np.linspace(1.0 / (n_max + 1), 1.0, 50_001)
    total = sum(shell_weight(ShellSpec(n), r) ** 2 for n in range(1, n_max + 1))
    assert np.min(total) >= 1.0 - 1e-12


def test_forward_cone_values():
    spec = ConeSpec(Z, "forward", plateau_cos=0.9, support_cos=0.6)
    assert cone_weight(spec, Z) == 1.0
    assert cone_weight(spec, np.array([1.0, 0.0, 0.0])) == 0.0
    assert cone_weight(spec, np.array([0.0, 0.0, -1.0])) == 0.0
    # exactly on the support boundary
    u = 0.6
    khat = np.array([np.sqrt(1 - u * u), 0.0, u])
    assert cone_weight(spec, khat) == 0.0


def test_complement_double_equatorial_plateau():
    spec = ConeSpec(Z, "complement-double", plateau_cos=0.3, support_cos=0.7)
    assert cone_weight(spec, np.array([1.0, 0.0, 0.0])) == 1.0  # equator
    assert cone_weight(spec, Z) == 0.0
    assert cone_weight(spec, -Z) == 0.0


def test_double_cone_both_caps():
    spec = ConeSpec(Z, "double", plateau_cos=0.9, support_cos=0.7)
    assert cone_weight(spec, Z) == 1.0
    assert cone_weight(spec, -Z) == 1.0
    assert cone_weight(spec, np.array([1.0, 0.0, 0.0])) == 0.0


def test_cone_depends_only_on_polar_angle():
    spec = ConeSpec(Z, "forward", plateau_cos=0.9, support_cos=0.5)
    u = 0.75
    s = np.sqrt(1 - u * u)
    vals = [
        cone_weight(spec, np.array([s * np.cos(phi), s * np.sin(phi), u]))
        for phi in np.linspace(0, 2 * np.pi, 17)
    ]
    assert np.ptp(vals) < 1e-15


def test_cone_polar_derivative_bound():
    spec = ConeSpec(Z, "forward", plateau_cos=0.9, support_cos=0.5)
    width_theta = np.arccos(0.5) - np.arccos(0.9)
    u = np.linspace(-0.999, 0.999, 20_001)
    khat = np.stack([np.sqrt(1 - u * u), np.zeros_like(u), u], axis=1)
    dxi_du = cone_weight_derivative_u(spec, khat)
    dxi_dtheta = np.abs(dxi_du) * np.sqrt(1 - u * u)
    assert np.max(dxi_dtheta) <= CONE_SLOPE_CONSTANT / width_theta


def test_cone_derivative_matches_fd():
    spec = ConeSpec(Z, "complement-double", plateau_cos=0.3, support_cos=0.7)
    h = 1e-7
    for u in (-0.65, -0.4, 0.45, 0.62):
        s = np.sqrt(1 - u * u)
        k = lambda uu: np.array([np.sqrt(1 - uu * uu), 0.0, uu])
        fd = (cone_weight(spec, k(u + h)) - cone_weight(spec, k(u - h))) / (2 * h)
        assert cone_weight_derivative_u(spec, k(u)) == pytest.approx(fd, abs=1e-5)


def test_cone_validation():
    with pytest.raises(ValueError):
        ConeSpec(Z, "forward", plateau_cos=0.5, support_cos=0.9)
    with pytest.raises(ValueError):
        ConeSpec(Z, "complement-double", plateau_cos=0.9, support_cos=0.5)
    with pytest.raises(ValueError):
        ConeSpec(Z, "sideways", plateau_cos=0.9, support_cos=0.5)
    with pytest.raises(ValueError):
        ConeSpec(np.zeros(3), "forward", plateau_cos=0.9, support_cos=0.5)
    with pytest.raises(ValueError):
        ShellSpec(0)


def test_cone_from_coupling_geometry():
    fwd = cone_from_coupling("forward", Z, g=0.05, gamma=0.2)
    theta = 0.05**0.2
    assert fwd.support_cos == pytest.approx(np.cos(theta))
    assert fwd.plateau_cos == pytest.approx(np.cos(theta / 2))
    # the gamma/8 exponent only gives resolvable angles for tiny couplings
    g_tiny = 1e-5
    cdl = cone_from_coupling("complement-double", Z, g=g_tiny, gamma=0.2)
    t8 = g_tiny ** (0.2 / 8)
    assert cdl.support_cos == pytest.approx(np.cos(t8))
    assert cdl.plateau_cos == pytest.approx(np.cos(2 * t8))
    with pytest.raises(ValueError):
        cone_from_coupling("forward", Z, g=0.0)
    with pytest.raises(ValueError):
        cone_from_coupling("complement-double", Z, g=0.05, gamma=0.2)


def test_mode_weights_compose(small_grid):
    shell = ShellSpec(1)
    cone = ConeSpec(Z, "forward", plateau_cos=0.8, support_cos=0.3)
    w = mode_weights(small_grid, shell=shell, cone=cone)
    chi = shell_weight(shell, small_grid.magnitudes)
    xi = cone_weight(cone, small_grid.unit_vectors)
    assert w == pytest.approx(chi**2 * xi**2)
    assert mode_weights(small_grid) == pytest.approx(np.ones(small_grid.n_modes))


def test_tabulation_files(tmp_path):
    shell_path = tmp_path / "shell.csv"
    tabulate_shell(ShellSpec(2), shell_path, samples=64)
    lines = shell_path.read_text().strip().split("\n")
    assert lines[0] == "r,weight"
    assert len(lines) == 65
    cone_path = tmp_path / "cone.csv"
    tabulate_cone(
        ConeSpec(Z, "forward", plateau_cos=0.9, support_cos=0.5), cone_path, samples=64
    )
    lines = cone_path.read_text().strip().split("\n")
    assert lines[0] == "cos_theta,weight"
    assert len(lines) == 65
