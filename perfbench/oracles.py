"""Reference quantities the output checks compare against.

Everything here is computed from the documented model definition (README
of the package: product quadrature grid, power-law coupling with a quintic
roll-off, dyadic shell weights) without importing the package, so a fault in
the program cannot cancel out of a check.
"""

import numpy as np

# Config defaults as documented in the package README.
DEFAULTS = {
    "k_min": 0.05,
    "k_max": 1.0,
    "radial_count": 16,
    "radial_spacing": "geometric",
    "polar_count": 8,
    "azimuthal_count": 1,
    "n_max": 2,
    "e_cut": None,
    "amplitude": 1.0,
    "beta": 1.0,
    "cutoff": 1.0,
    "smooth_width": 0.2,
    "solver_tol": 1e-9,
    "solver_maxiter": None,
    "pairs": 4,
    "experiment": {},
}

# Scans put P on the grid's polar axis.
SCAN_AXIS = np.array([0.0, 0.0, 1.0])

# Shell weights ramp over this fraction of the plateau edge (weights.py docs).
SHELL_RAMP_FRACTION = 1.0 / 16.0


def full_config(partial: dict) -> dict:
    return {**DEFAULTS, **partial}


def smootherstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t * t)


def coupling(cfg: dict, r) -> np.ndarray:
    """rho(r) = amplitude r^beta, rolled off to zero at `cutoff`."""
    r = np.asarray(r, dtype=float)
    cut, width = cfg["cutoff"], cfg["smooth_width"]
    roll = smootherstep((cut - r) / (cut * width))
    return np.where(r < cut, cfg["amplitude"] * r ** cfg["beta"] * roll, 0.0)


def grid_modes(cfg: dict):
    """Mode wavevectors (M, 3) and cell volumes (M,) of the product grid.

    Radial cells are geometric (node at the geometric mean of the edges) or
    linear (node at the midpoint) with exact measures integral(r^2 dr);
    polar nodes are Gauss-Legendre in cos(theta); azimuthal nodes uniform.
    """
    k_min, k_max, n_r = cfg["k_min"], cfg["k_max"], cfg["radial_count"]
    if cfg["radial_spacing"] == "geometric":
        edges = k_min * (k_max / k_min) ** (np.arange(n_r + 1) / n_r)
        edges[-1] = k_max
        nodes = np.sqrt(edges[:-1] * edges[1:])
    else:
        edges = np.linspace(k_min, k_max, n_r + 1)
        nodes = 0.5 * (edges[:-1] + edges[1:])
    measures = (edges[1:] ** 3 - edges[:-1] ** 3) / 3.0
    cos_t, w_cos = np.polynomial.legendre.leggauss(cfg["polar_count"])
    n_phi = cfg["azimuthal_count"]
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    r, c, f = (a.ravel() for a in np.meshgrid(nodes, cos_t, phi, indexing="ij"))
    s = np.sqrt(1.0 - c * c)
    k = np.stack([r * s * np.cos(f), r * s * np.sin(f), r * c], axis=1)
    w_phi = 2.0 * np.pi / n_phi
    vol = np.outer(measures, w_cos).repeat(n_phi, axis=1).ravel() * w_phi
    return k, vol


def free_energy_bound(cfg: dict, P) -> float:
    """min of <H_P> over the vacuum and the one-boson states.

    The interaction has no diagonal part, so these are P^2/2 and
    (P - k_m)^2/2 + |k_m|; the ground energy cannot lie above either.
    """
    P = np.asarray(P, dtype=float)
    k, _ = grid_modes(cfg)
    one_boson = 0.5 * np.sum((P - k) ** 2, axis=1) + np.linalg.norm(k, axis=1)
    return float(min(0.5 * P @ P, one_boson.min()))


def second_order_energy(cfg: dict, P) -> float:
    """E2 = -sum_m vol_m rho_m^2 / gap_m, gap_m = (P-k_m)^2/2 + |k_m| - P^2/2."""
    P = np.asarray(P, dtype=float)
    k, vol = grid_modes(cfg)
    mag = np.linalg.norm(k, axis=1)
    gap = 0.5 * np.sum((P - k) ** 2, axis=1) + mag - 0.5 * P @ P
    if np.any(gap <= 0.0):
        raise ValueError("E2 needs every one-boson gap positive (|P| < 1)")
    return float(-np.sum(vol * coupling(cfg, mag) ** 2 / gap))


def vacuum_second_moment(cfg: dict, g: float) -> float:
    """||(H_P - P^2/2) vacuum||^2 = g^2 sum_m vol_m rho_m^2.

    Equals sum_j w_j (E_j - P^2/2)^2 over the whole spectrum, with w_j the
    vacuum weight of eigenpair j; any subset of pairs sums to no more.
    """
    k, vol = grid_modes(cfg)
    return float(g * g * np.sum(vol * coupling(cfg, np.linalg.norm(k, axis=1)) ** 2))


def shell_weight_sq_sum_max(cfg: dict, n_shells: int) -> float:
    """max over modes of sum_{n=1..n_shells} chi_n(|k|)^2.

    Bounds the sum of shell-restricted boson numbers per boson.  Adjacent
    dyadic shells share a ramp, so this can exceed 1 when a node sits there.
    """
    k, _ = grid_modes(cfg)
    r = np.linalg.norm(k, axis=1)
    s = SHELL_RAMP_FRACTION
    total = np.zeros_like(r)
    for n in range(1, n_shells + 1):
        lo0, lo1, hi1, hi0 = (1 - s) / (n + 1), 1 / (n + 1), 1 / n, (1 + s) / n
        up = smootherstep((r - lo0) / (lo1 - lo0))
        chi = up * smootherstep((hi0 - r) / (hi0 - hi1))
        total += chi * chi
    return float(total.max())
