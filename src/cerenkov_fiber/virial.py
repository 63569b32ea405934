"""Dilated coupling symbols and dilation-identity residuals on states.

The radial scaling generator d = chi (k.i∇ + i∇.k)/2 chi acts on the
coupling profile analytically:

    parallel    (i d rho)(k) = -chi [ r d/dr(chi rho) + (3/2) chi rho ] * xi^2
    kappa=inf   (i d rho)(k) = -( r rho'(r) + (3/2) rho(r) )

and its commutators with |k| and k are multiplication by chi^2 |k| and
chi^2 k.  The perpendicular generator replaces the radial derivative with the
transverse one; div(k_perp) contributes 1 in place of 3/2 and the commutator
weights become chi^2 xi^2 |k_perp|^2/|k| and chi^2 xi^2 k_perp.

On an exact continuum eigenvector the residuals below vanish identically;
on the discretized model they measure quadrature error and eigen-residual,
so they shrink under grid refinement and solver tightening.

All profiles (rho, chi, xi) have closed-form derivatives; no numerical
differentiation enters any operator.
"""

import math
from dataclasses import dataclass

import numpy as np

from cerenkov_fiber.fock import FockBasis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.hamiltonian import displacement_expectation
from cerenkov_fiber.smoothing import plateau_ramp
from cerenkov_fiber.weights import (
    ConeSpec,
    ShellSpec,
    cone_weight,
    cone_weight_derivative_u,
    shell_weight,
    shell_weight_derivative,
)


class DilationParameterError(ValueError):
    """Scaling window parameter outside its admissible range."""


@dataclass(frozen=True)
class DilationSpec:
    """Scaling-generator window: radial kappa-window or shell/cone sector."""

    kappa: float = math.inf
    shell: ShellSpec | None = None
    cone: ConeSpec | None = None
    mode: str = "parallel"

    def __post_init__(self):
        if self.mode not in ("parallel", "perpendicular"):
            raise DilationParameterError(f"unknown mode {self.mode!r}")
        if self.mode == "perpendicular" and self.cone is None:
            raise DilationParameterError(
                "perpendicular dilation needs a cone to fix the axis"
            )
        if self.kappa <= 0.0:
            raise DilationParameterError("kappa must be positive")


def _kappa_edges(kappa: float) -> tuple:
    lo = 1.0 / kappa
    return (0.5 * lo, lo, kappa, 2.0 * kappa)


def kappa_window(kappa: float, r):
    """Smooth indicator of [1/kappa, kappa], supported in [1/(2 kappa), 2 kappa]."""
    if math.isinf(kappa):
        return np.ones_like(np.asarray(r, dtype=float))
    return plateau_ramp(_kappa_edges(kappa), r)[0]


def kappa_window_derivative(kappa: float, r):
    if math.isinf(kappa):
        return np.zeros_like(np.asarray(r, dtype=float))
    return plateau_ramp(_kappa_edges(kappa), r)[1]


def _window_profiles(ff: FormFactor, spec: DilationSpec, r):
    """chi(r), (chi*rho)'(r), chi*rho and friends for the active window."""
    rho = ff.value(r)
    drho = ff.derivative(r)
    if spec.shell is not None:
        chi = shell_weight(spec.shell, r)
        dchi = shell_weight_derivative(spec.shell, r)
    elif math.isinf(spec.kappa):
        chi = np.ones_like(r)
        dchi = np.zeros_like(r)
    else:
        chi = kappa_window(spec.kappa, r)
        dchi = kappa_window_derivative(spec.kappa, r)
    return rho, drho, chi, dchi


def dilated_form_factor(ff: FormFactor, spec: DilationSpec):
    """The symbol (i d rho)(k) as a function of mode wavevectors (N, 3)."""
    if spec.shell is None and not math.isinf(spec.kappa):
        if spec.kappa <= max(ff.cutoff, 1.0):
            raise DilationParameterError(
                f"kappa={spec.kappa} must exceed max(cutoff, 1) = "
                f"{max(ff.cutoff, 1.0)}"
            )

    def symbol(kvecs):
        kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
        r = np.linalg.norm(kvecs, axis=1)
        rho, drho, chi, dchi = _window_profiles(ff, spec, r)
        chirho = chi * rho
        dchirho = dchi * rho + chi * drho
        if spec.cone is not None:
            khat = kvecs / r[:, None]
            xi = cone_weight(spec.cone, khat)
            dxi_du = cone_weight_derivative_u(spec.cone, khat)
            u = khat @ spec.cone.axis
        else:
            xi = np.ones_like(r)
            dxi_du = np.zeros_like(r)
            u = np.zeros_like(r)
        if spec.mode == "parallel":
            # k.grad annihilates xi(khat); only the radial derivative acts
            return -(xi**2) * chi * (r * dchirho + 1.5 * chirho)
        # perpendicular: k_perp . grad_perp, with div(k_perp) = 2
        sin2 = 1.0 - u**2
        transverse = xi * dchirho * r * sin2 - chirho * dxi_du * u * sin2
        return -chi * xi * (transverse + chi * xi * rho)

    return symbol


@dataclass
class VirialReport:
    """Residual of a dilation identity with its four terms reported separately."""

    residual: float
    number_energy_term: float      # <dGamma(chi^2 xi^2 w_energy)>
    momentum_mixed_term: float     # field-momentum coupling or gradient term
    drift_term: float              # P . <dGamma(chi^2 k)> (fiber identity only)
    source_term: float             # g <b+(id rho) + b(id rho)>
    kappa: float | None = None
    shell_n: int | None = None
    cone_kind: str | None = None
    mode: str = "parallel"
    eigen_residual: float | None = None

    @property
    def residual_dominates(self) -> bool:
        """|residual| exceeds every term it balances: the grid under-resolves
        the identity, so the residual measures nothing."""
        terms = (
            self.number_energy_term,
            self.momentum_mixed_term,
            self.drift_term,
            self.source_term,
        )
        return abs(self.residual) > max(abs(t) for t in terms)


def virial_residual(
    state,
    P,
    g: float,
    spec: DilationSpec,
    basis: FockBasis,
    form_factor: FormFactor,
    eigen_residual: float | None = None,
) -> VirialReport:
    """Fiber dilation-identity residual for the kappa-window generator.

    R = <dGamma(chi^2 |k|)> + <dGamma(chi^2 k) . P^f> - P . <dGamma(chi^2 k)>
        - g <b+(id rho) + b(id rho)>.

    The mixed term is evaluated per basis state as the dot product of two
    diagonal vector sums; both factors are diagonal on the occupation basis,
    so the symmetrized product is exact at the discrete level.
    """
    if spec.mode != "parallel" or spec.shell is not None or spec.cone is not None:
        raise DilationParameterError(
            "the fiber identity uses the parallel kappa-window generator; "
            "shell/cone sectors go through sector_virial_residual"
        )
    psi = np.asarray(state, dtype=float)
    P = np.asarray(P, dtype=float).reshape(3)
    grid = basis.grid
    r = grid.magnitudes
    w2 = kappa_window(spec.kappa, r) ** 2

    t_energy = float(np.sum(psi * psi * basis.dgamma_diagonal(w2 * r)))
    w_mom = basis.dgamma_vector_diagonal(w2[:, None] * grid.k)
    t_mixed = float(
        np.sum(psi * psi * np.einsum("sd,sd->s", w_mom, basis.total_momentum))
    )
    t_drift = float(np.sum(psi * psi * (w_mom @ P)))
    coeffs = np.sqrt(grid.vol) * dilated_form_factor(form_factor, spec)(grid.k)
    t_source = g * displacement_expectation(basis, coeffs, psi)

    return VirialReport(
        residual=t_energy + t_mixed - t_drift - t_source,
        number_energy_term=t_energy,
        momentum_mixed_term=t_mixed,
        drift_term=t_drift,
        source_term=t_source,
        kappa=spec.kappa,
        eigen_residual=eigen_residual,
    )


def sector_virial_residual(
    state,
    grad_E,
    shell: ShellSpec,
    cone: ConeSpec,
    mode: str,
    g: float,
    basis: FockBasis,
    form_factor: FormFactor,
    eigen_residual: float | None = None,
) -> VirialReport:
    """Sector identity residual with the energy gradient in place of P.

    parallel:       R = <dGamma(chi^2 xi^2 |k|)>
                        - grad_E . <dGamma(chi^2 xi^2 k)> - g <source>
    perpendicular:  weights |k_perp|^2/|k| and k_perp with
                    k_perp = k - (k . axis) axis.
    """
    spec = DilationSpec(kappa=math.inf, shell=shell, cone=cone, mode=mode)
    psi = np.asarray(state, dtype=float)
    grad_E = np.asarray(grad_E, dtype=float).reshape(3)
    grid = basis.grid
    r = grid.magnitudes

    chi = shell_weight(shell, r)
    xi = cone_weight(cone, grid.unit_vectors)
    w2 = chi**2 * xi**2

    if mode == "parallel":
        energy_weight = w2 * r
        kvec = grid.k
    elif mode == "perpendicular":
        along = grid.k @ cone.axis
        kperp = grid.k - np.outer(along, cone.axis)
        energy_weight = w2 * np.einsum("md,md->m", kperp, kperp) / r
        kvec = kperp
    else:
        raise DilationParameterError(f"unknown mode {mode!r}")

    t_energy = float(np.sum(psi * psi * basis.dgamma_diagonal(energy_weight)))
    w_mom = basis.dgamma_vector_diagonal(w2[:, None] * kvec)
    t_grad = float(np.sum(psi * psi * (w_mom @ grad_E)))
    coeffs = np.sqrt(grid.vol) * dilated_form_factor(form_factor, spec)(grid.k)
    t_source = g * displacement_expectation(basis, coeffs, psi)

    return VirialReport(
        residual=t_energy - t_grad - t_source,
        number_energy_term=t_energy,
        momentum_mixed_term=t_grad,
        drift_term=0.0,
        source_term=t_source,
        kappa=None,
        shell_n=shell.n,
        cone_kind=cone.kind,
        mode=mode,
        eigen_residual=eigen_residual,
    )
