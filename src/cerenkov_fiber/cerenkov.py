"""Resonance kinematics, golden-rule decay rate, and trial-state elements.

A bare particle of momentum P can shed a boson of momentum k at zero energy
cost when (P - k)^2/2 + |k| = P^2/2, i.e. when |k| solves

    r^2/2 + (1 - |P| cos(theta)) r + (P^2/2 - E) = 0

at E = P^2/2, which requires |P| cos(theta) > 1.  The golden-rule rate
integrates the squared coupling over that resonance surface; the trial state
concentrates a one-boson wave packet on it with energy width epsilon.
"""

import math
from dataclasses import dataclass

import numpy as np

from cerenkov_fiber.fock import FockBasis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import MomentumGrid
from cerenkov_fiber.smoothing import bump

_ROOT_ATOL = 1e-12
# relative accuracy asked of the golden-rule quadrature
GOLDEN_RULE_REL_TOL = 1e-9


class EmptyWindowError(RuntimeError):
    """No grid mode falls inside the trial-state energy window."""


def _p_magnitude(P) -> float:
    arr = np.asarray(P, dtype=float)
    return float(np.linalg.norm(arr)) if arr.ndim else float(abs(arr))


def resonance_momentum(p_mag: float, energy: float, cos_theta: float) -> np.ndarray:
    """Nonnegative radii where emission at angle theta conserves energy.

    Returns zero, one, or two roots in ascending order; a double root is
    reported once.
    """
    if abs(cos_theta) > 1.0 + 1e-12:
        raise ValueError(f"cos_theta must lie in [-1, 1], got {cos_theta}")
    b = 1.0 - p_mag * cos_theta
    c = 0.5 * p_mag * p_mag - energy
    disc = b * b - 2.0 * c
    if disc < -_ROOT_ATOL:
        return np.empty(0)
    disc = max(disc, 0.0)
    roots = np.array([-b - math.sqrt(disc), -b + math.sqrt(disc)])
    roots = roots[roots >= -_ROOT_ATOL]
    roots = np.clip(roots, 0.0, None)
    if len(roots) == 2 and abs(roots[1] - roots[0]) <= _ROOT_ATOL:
        roots = roots[:1]
    return np.sort(roots)


def cerenkov_threshold(p_mag: float) -> float | None:
    """Minimal cos(theta) for resonant emission at E = P^2/2, if any."""
    if p_mag <= 0.0:
        raise ValueError("p_mag must be positive")
    if p_mag <= 1.0:
        return None
    return 1.0 / p_mag


def golden_rule_rate(P, g: float, ff: FormFactor) -> float:
    """Decay rate of the bare state into the one-boson resonance surface.

    Gamma = 2 pi g^2 integral d^3k rho(|k|)^2 delta((P-k)^2/2 + |k| - P^2/2),
    reduced to a 1D integral over cos(theta): the root r* = 2(|P| c - 1)
    carries radial Jacobian 1/(|P| c - 1), leaving the integrand
    4 (|P| c - 1) rho(r*)^2, integrated to GOLDEN_RULE_REL_TOL.  Zero below
    the threshold |P| <= 1.
    """
    p = _p_magnitude(P)
    if p <= 1.0:
        return 0.0
    c_lo = 1.0 / p
    c_hi = min(1.0, (1.0 + 0.5 * ff.cutoff) / p)
    if c_hi <= c_lo:
        return 0.0

    def integrand(c):
        x = p * c - 1.0
        rho = ff.value(2.0 * x)
        return 4.0 * x * rho * rho

    # imported here, not at module level: scipy.integrate pulls in
    # scipy.optimize, which every CLI command would otherwise pay for at start
    from scipy import integrate

    value, _ = integrate.quad(
        integrand, c_lo, c_hi, epsrel=GOLDEN_RULE_REL_TOL, epsabs=1e-300, limit=200
    )
    return 4.0 * math.pi**2 * g * g * value


@dataclass
class TrialSpec:
    """One-boson wave packet concentrated on the resonance surface.

    `energy` is the target total energy and `epsilon` the width of the
    energy window; the packet's profile is `smoothing.bump`, a nonnegative
    bump supported on [-1, 1] with peak 1.
    """

    epsilon: float
    energy: float

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def trial_state(P, spec: TrialSpec, grid: MomentumGrid, basis: FockBasis):
    """Unnormalized trial vector on the one-boson sector, plus its norm.

    Amplitude at mode m:  sqrt(vol_m) eps^(-1/2) h( (E_free(k_m) - E)/eps )
    with E_free(k) = (P - k)^2/2 + |k|.  Raises EmptyWindowError when every
    mode is off resonance by more than the window width.
    """
    P = np.asarray(P, dtype=float).reshape(3)
    diff = P[None, :] - grid.k
    free = 0.5 * np.einsum("md,md->m", diff, diff) + grid.magnitudes
    z = (free - spec.energy) / spec.epsilon
    amps = np.sqrt(grid.vol) * bump(z) / math.sqrt(spec.epsilon)
    if not np.any(amps != 0.0):
        raise EmptyWindowError(
            f"no grid mode within the energy window of width {spec.epsilon} "
            f"around E = {spec.energy}"
        )
    ordinals = basis.one_boson_ordinals()
    present = ordinals >= 0
    eta = np.zeros(basis.dimension)
    eta[ordinals[present]] = amps[present]
    norm = float(np.linalg.norm(eta))
    if norm == 0.0:
        raise EmptyWindowError(
            "all resonant modes were truncated away by the basis energy cut"
        )
    return eta, norm


def decay_element(
    eta: np.ndarray, ff: FormFactor, g: float, basis: FockBasis
) -> float:
    """The matrix element <eta, g phi(rho) vacuum>, by direct summation.

    Only one-boson amplitudes of eta contribute:
    g sum_m sqrt(vol_m) rho(|k_m|) eta_m.
    """
    grid = basis.grid
    coeffs = np.sqrt(grid.vol) * ff.value(grid.magnitudes)
    ordinals = basis.one_boson_ordinals()
    present = ordinals >= 0
    return g * float(coeffs[present] @ eta[ordinals[present]])


def trial_scaling(
    P,
    energy: float,
    grid: MomentumGrid,
    basis: FockBasis,
    ff: FormFactor,
    g: float,
    epsilons,
):
    """Rows (epsilon, |element|, norm, ratio) for the width-scaling experiment."""
    rows = []
    for eps in epsilons:
        eta, norm = trial_state(P, TrialSpec(epsilon=float(eps), energy=energy), grid, basis)
        element = decay_element(eta, ff, g, basis)
        rows.append((float(eps), abs(element), norm, abs(element) / norm))
    return rows
