"""Quadrature discretization of boson momentum space.

A grid is a product quadrature over the spherical shell k_min <= |k| <= k_max:
radial cells (geometric or linear), Gauss-Legendre nodes in cos(theta), and
uniform azimuthal nodes.  Each mode carries the exact cell volume
integral(r^2 dr) * w_polar * w_azimuthal, so sum(vol) reproduces the shell
volume to machine precision and constant functions integrate exactly.

Grids are immutable after construction and safe for shared concurrent reads.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_MODE_BUDGET = 200_000

_Z_AXIS = (0.0, 0.0, 1.0)


class GridError(ValueError):
    """Invalid grid parameters."""


@dataclass(frozen=True)
class RadialSpec:
    """Radial quadrature: `count` cells spanning [k_min, k_max]."""

    k_min: float
    k_max: float
    count: int
    spacing: str = "geometric"

    def __post_init__(self):
        if not self.k_min > 0.0:
            raise GridError(f"k_min must be positive, got {self.k_min}")
        if self.count < 1:
            raise GridError(f"radial count must be >= 1, got {self.count}")
        if self.k_max < self.k_min:
            raise GridError(f"k_max={self.k_max} below k_min={self.k_min}")
        if self.k_max == self.k_min and self.count > 1:
            raise GridError("degenerate radial span allows only a single node")
        if self.spacing not in ("geometric", "linear"):
            raise GridError(f"unknown radial spacing {self.spacing!r}")


@dataclass(frozen=True)
class AngularSpec:
    """Angular quadrature: Gauss-Legendre in cos(theta), uniform in phi."""

    polar_count: int
    azimuthal_count: int

    def __post_init__(self):
        if self.polar_count < 1 or self.azimuthal_count < 1:
            raise GridError("angular counts must be >= 1")


@dataclass(frozen=True)
class MomentumGrid:
    """Discretized momentum shell: mode wavevectors with positive cell volumes."""

    k: np.ndarray            # (M, 3) mode wavevectors
    vol: np.ndarray          # (M,) cell volumes
    k_min: float
    k_max: float
    radial_nodes: int
    angular_nodes: int
    axis: np.ndarray = field(default_factory=lambda: np.array(_Z_AXIS))
    radial_edges: np.ndarray | None = None

    @property
    def n_modes(self) -> int:
        return self.k.shape[0]

    @cached_property
    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.k, axis=1)

    @cached_property
    def unit_vectors(self) -> np.ndarray:
        return self.k / self.magnitudes[:, None]

    @property
    def max_radial_width(self) -> float:
        """Widest radial cell; the grid's energy-resolution scale."""
        if self.radial_edges is None or len(self.radial_edges) < 2:
            return 0.0
        return float(np.max(np.diff(self.radial_edges)))

    @classmethod
    def single_mode(cls, k, vol: float) -> "MomentumGrid":
        """One explicit mode with a declared cell volume (toy models, oracles)."""
        k = np.asarray(k, dtype=float).reshape(1, 3)
        mag = float(np.linalg.norm(k))
        if mag <= 0.0 or vol <= 0.0:
            raise GridError("single mode needs |k| > 0 and vol > 0")
        return cls(
            k=k,
            vol=np.array([float(vol)]),
            k_min=mag,
            k_max=mag,
            radial_nodes=1,
            angular_nodes=1,
        )


def _radial_cells(spec: RadialSpec):
    """Cell edges, node radii, and exact radial measures integral(r^2 dr)."""
    if spec.k_max == spec.k_min:
        # Zero-width span: unit-width cell convention keeps vol > 0 for
        # single-mode toy grids; the shell-volume identity does not apply.
        nodes = np.array([spec.k_min])
        measures = np.array([spec.k_min**2])
        edges = np.array([spec.k_min, spec.k_min])
        return edges, nodes, measures
    if spec.spacing == "geometric":
        ratio = (spec.k_max / spec.k_min) ** (1.0 / spec.count)
        edges = spec.k_min * ratio ** np.arange(spec.count + 1)
        edges[-1] = spec.k_max
        nodes = np.sqrt(edges[:-1] * edges[1:])
    else:
        edges = np.linspace(spec.k_min, spec.k_max, spec.count + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
    measures = (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0
    return edges, nodes, measures


def build_grid(radial: RadialSpec, angular: AngularSpec) -> MomentumGrid:
    """Build the product quadrature grid over the momentum shell.

    Mode ordering is radial-major, then polar, then azimuthal; frozen so that
    result files are reproducible bit-for-bit across runs.  Raises GridError
    when the grid would have more than DEFAULT_MODE_BUDGET modes.
    """
    n_modes = radial.count * angular.polar_count * angular.azimuthal_count
    if n_modes > DEFAULT_MODE_BUDGET:
        raise GridError(
            f"grid would have {n_modes} modes, exceeding the budget of "
            f"{DEFAULT_MODE_BUDGET}"
        )

    edges, r_nodes, r_measures = _radial_cells(radial)
    cos_nodes, cos_weights = np.polynomial.legendre.leggauss(angular.polar_count)
    phi = 2.0 * np.pi * np.arange(angular.azimuthal_count) / angular.azimuthal_count
    w_phi = 2.0 * np.pi / angular.azimuthal_count

    # radial-major mesh: index = (i_r * polar + j_theta) * azimuthal + l_phi
    r_g, c_g, p_g = np.meshgrid(r_nodes, cos_nodes, phi, indexing="ij")
    s_g = np.sqrt(1.0 - c_g**2)
    k = np.stack(
        [r_g * s_g * np.cos(p_g), r_g * s_g * np.sin(p_g), r_g * c_g], axis=-1
    ).reshape(-1, 3)
    vol = (
        r_measures[:, None, None] * cos_weights[None, :, None] * w_phi
    ) * np.ones_like(p_g)
    vol = vol.reshape(-1)

    return MomentumGrid(
        k=k,
        vol=vol,
        k_min=radial.k_min,
        k_max=radial.k_max,
        radial_nodes=radial.count,
        angular_nodes=angular.polar_count * angular.azimuthal_count,
        radial_edges=edges,
    )
