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
from cerenkov_fiber.hamiltonian import interaction_coefficients
from cerenkov_fiber.smoothing import bump

_ROOT_ATOL = 1e-12
# 32-point Gauss-Legendre rule on [-1, 1] for the golden-rule roll-off in log r
_ROLL_NODES, _ROLL_WEIGHTS = np.polynomial.legendre.leggauss(32)


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

    Gamma = 2 pi g^2 integral d^3k rho(|k|)^2 delta((P-k)^2/2 + |k| - P^2/2).
    The resonance root at cos(theta) = c is r = 2(|P| c - 1), and in r

        Gamma = (4 pi^2 g^2 / |P|) integral_0^U r rho(r)^2 dr,
        U = min(2(|P| - 1), cutoff).

    Up to a = min(U, power_edge) rho is amplitude * r^beta, so that part is
    amplitude^2 a^s / s with s = 2 beta + 2; the roll-off on [power_edge, U]
    is integrated by a 32-point Gauss-Legendre rule in log r.  Zero below the
    threshold |P| <= 1; above it ValueError for beta <= -1, where the
    integral diverges at r = 0.
    """
    p = _p_magnitude(P)
    if p <= 1.0:
        return 0.0
    if ff.beta <= -1.0:
        raise ValueError(
            f"golden-rule rate diverges for beta <= -1, got beta = {ff.beta}"
        )
    top = min(2.0 * (p - 1.0), ff.cutoff)
    edge = min(top, ff.power_edge)
    s = 2.0 * ff.beta + 2.0
    value = ff.amplitude**2 * edge**s / s
    if top > edge:
        lo, hi = math.log(edge), math.log(top)
        half = 0.5 * (hi - lo)
        r = np.exp(lo + half * (_ROLL_NODES + 1.0))
        rho = ff.value(r)
        value += half * float(_ROLL_WEIGHTS @ (r * r * rho * rho))
    return 4.0 * math.pi**2 * g * g * value / p


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
    coeffs = interaction_coefficients(basis.grid, ff)
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
