"""Shell and cone cutoff weights with closed-form derivatives.

Shell weights are smooth indicators of the dyadic momentum shells
[1/(n+1), 1/n]; cone weights are smooth angular indicators depending on
cos(theta) against a fixed axis.  Restricted number operators weight each
mode by chi^2 * xi^2, the square of these profiles.

Ramps are deliberately narrower than the maximal allowed windows (fraction
DEFAULT_RAMP_FRACTION of the plateau edge) so that shells n and n+2 have
disjoint supports for n <= 6, at the price of a larger slope constant.
"""

from dataclasses import dataclass

import numpy as np

from cerenkov_fiber.smoothing import (
    SMOOTHERSTEP_MAX_SLOPE,
    plateau_ramp,
    smootherstep,
    smootherstep_derivative,
)

DEFAULT_RAMP_FRACTION = 1.0 / 16.0
# max slope of the narrow ramp, attained for n = 1: (15/8)(n+1)/(s n) <= 60 n
DEFAULT_SHELL_SLOPE_CONSTANT = 2.0 * SMOOTHERSTEP_MAX_SLOPE / DEFAULT_RAMP_FRACTION
# bound on |d xi/d theta| times the ramp's polar width when the support angle
# is at most twice the plateau angle, as for `cone_from_coupling`'s cones:
# the slope is at most (15/8) sin(theta_s) / sin(theta_p) <= 15/4
CONE_SLOPE_CONSTANT = 4.0

CONE_KINDS = ("forward", "double", "complement-double")


@dataclass(frozen=True)
class ShellSpec:
    """Dyadic shell index n; the ramps are DEFAULT_RAMP_FRACTION wide, and
    the weight's slope is at most DEFAULT_SHELL_SLOPE_CONSTANT * n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"shell index must be >= 1, got {self.n}")

    @property
    def edges(self):
        """(support_lo, plateau_lo, plateau_hi, support_hi)."""
        n, s = self.n, DEFAULT_RAMP_FRACTION
        return (
            (1.0 - s) / (n + 1),
            1.0 / (n + 1),
            1.0 / n,
            (1.0 + s) / n,
        )


def shell_weight(spec: ShellSpec, r):
    """chi_n(r): 1 on [1/(n+1), 1/n], 0 outside the ramped support."""
    out = plateau_ramp(spec.edges, r)[0]
    return out if out.ndim else float(out)


def shell_weight_derivative(spec: ShellSpec, r):
    out = plateau_ramp(spec.edges, r)[1]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ConeSpec:
    """Angular weight profile around `axis`, a function of u = khat . axis.

    kinds:
      forward            1 for u >= plateau_cos, 0 for u <= support_cos
      double             same in |u| (both polar caps)
      complement-double  equatorial band: 1 for |u| <= plateau_cos,
                         0 for |u| >= support_cos
    """

    axis: np.ndarray
    kind: str
    plateau_cos: float
    support_cos: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        norm = np.linalg.norm(axis)
        if not norm > 0.0:
            raise ValueError("cone axis must be nonzero")
        object.__setattr__(self, "axis", axis / norm)
        if self.kind not in CONE_KINDS:
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if not (-1.0 <= self.support_cos <= 1.0 and -1.0 <= self.plateau_cos <= 1.0):
            raise ValueError("cone cosines must lie in [-1, 1]")
        if self.kind == "complement-double":
            if not self.plateau_cos < self.support_cos:
                raise ValueError(
                    "complement-double requires plateau_cos < support_cos"
                )
        elif not self.support_cos < self.plateau_cos:
            raise ValueError(f"{self.kind} cone requires support_cos < plateau_cos")


def cone_weight(spec: ConeSpec, khat):
    """xi(khat) in [0, 1]; a function of khat . axis only."""
    khat = np.asarray(khat, dtype=float)
    u = khat @ spec.axis
    if spec.kind == "forward":
        t = (u - spec.support_cos) / (spec.plateau_cos - spec.support_cos)
    elif spec.kind == "double":
        t = (np.abs(u) - spec.support_cos) / (spec.plateau_cos - spec.support_cos)
    else:
        t = (spec.support_cos - np.abs(u)) / (spec.support_cos - spec.plateau_cos)
    out = smootherstep(t)
    return out if np.ndim(out) else float(out)


def cone_weight_derivative_u(spec: ConeSpec, khat):
    """d xi / du at u = khat . axis (chain rule through |u| where needed)."""
    khat = np.asarray(khat, dtype=float)
    u = khat @ spec.axis
    width = spec.plateau_cos - spec.support_cos
    if spec.kind == "forward":
        out = smootherstep_derivative((u - spec.support_cos) / width) / width
    elif spec.kind == "double":
        t = (np.abs(u) - spec.support_cos) / width
        out = smootherstep_derivative(t) / width * np.sign(u)
    else:
        width = spec.support_cos - spec.plateau_cos
        t = (spec.support_cos - np.abs(u)) / width
        out = -smootherstep_derivative(t) / width * np.sign(u)
    return out if np.ndim(out) else float(out)


def cone_from_coupling(kind: str, axis, g: float, gamma: float = 0.2) -> ConeSpec:
    """Cone angles at their coupling-scaled defaults.

    Forward cones use half-angle |g|^gamma (plateau at half of it); the
    double-cone family uses half-angle |g|^(gamma/8) with the plateau at
    twice it.  Desk-scale grids usually cannot resolve these angles for small
    g, so explicit cosines remain the primary interface.
    """
    if g == 0.0:
        raise ValueError("coupling-scaled cone angles need g != 0")
    if kind == "forward":
        theta = abs(g) ** gamma
        if theta >= np.pi / 2:
            raise ValueError("forward cone angle exceeds a quarter sphere")
        return ConeSpec(axis, kind, np.cos(theta / 2.0), np.cos(theta))
    theta = abs(g) ** (gamma / 8.0)
    if 2.0 * theta >= np.pi / 2:
        raise ValueError("double-cone angle exceeds a quarter sphere")
    if kind == "double":
        return ConeSpec(axis, kind, np.cos(theta), np.cos(2.0 * theta))
    if kind == "complement-double":
        return ConeSpec(axis, kind, np.cos(2.0 * theta), np.cos(theta))
    raise ValueError(f"unknown cone kind {kind!r}")
