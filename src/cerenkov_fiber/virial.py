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
)


class DilationParameterError(ValueError):
    """Scaling window parameter outside its admissible range."""


def check_kappa(kappa: float, cutoff: float) -> None:
    """Raise DilationParameterError unless kappa = inf or kappa > max(cutoff, 1).

    kappa > 1 keeps the window's edges in order, and kappa > cutoff puts the
    coupling's support below its upper plateau edge.
    """
    bound = max(cutoff, 1.0)
    if not (kappa == math.inf or kappa > bound):
        raise DilationParameterError(
            f"kappa={kappa} must exceed max(cutoff, 1) = {bound}"
        )


def kappa_window(kappa: float, r):
    """(chi, chi') of the smooth indicator of [1/kappa, kappa], supported in
    [1/(2 kappa), 2 kappa]; (1, 0) for kappa = inf."""
    r = np.asarray(r, dtype=float)
    if kappa == math.inf:
        return np.ones_like(r), np.zeros_like(r)
    lo = 1.0 / kappa
    return plateau_ramp((0.5 * lo, lo, kappa, 2.0 * kappa), r)


def dilated_form_factor(
    ff: FormFactor,
    kvecs,
    chi,
    dchi,
    cone: ConeSpec | None = None,
    mode: str = "parallel",
):
    """The symbol (i d rho)(k) at mode wavevectors kvecs (N, 3).

    chi and dchi are the radial window and its derivative at |k|; the
    perpendicular generator needs the cone, whose axis it acts across.
    """
    kvecs = np.atleast_2d(np.asarray(kvecs, dtype=float))
    r = np.linalg.norm(kvecs, axis=1)
    rho = ff.value(r)
    chirho = chi * rho
    dchirho = dchi * rho + chi * ff.derivative(r)
    if mode == "parallel":
        # k.grad annihilates xi(khat); only the radial derivative acts
        xi2 = 1.0 if cone is None else cone_weight(cone, kvecs / r[:, None]) ** 2
        return -xi2 * chi * (r * dchirho + 1.5 * chirho)
    # perpendicular: k_perp . grad_perp, with div(k_perp) = 2
    khat = kvecs / r[:, None]
    xi = cone_weight(cone, khat)
    dxi_du = cone_weight_derivative_u(cone, khat)
    u = khat @ cone.axis
    sin2 = 1.0 - u**2
    transverse = xi * dchirho * r * sin2 - chirho * dxi_du * u * sin2
    return -chi * xi * (transverse + chi * xi * rho)


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
    kappa: float,
    basis: FockBasis,
    form_factor: FormFactor,
    eigen_residual: float | None = None,
) -> VirialReport:
    """Fiber dilation-identity residual for the kappa-window generator.

    R = <dGamma(chi^2 |k|)> + <dGamma(chi^2 k) . P^f> - P . <dGamma(chi^2 k)>
        - g <b+(id rho) + b(id rho)>.

    The mixed term is evaluated per basis state as the dot product of two
    diagonal vector sums; both factors are diagonal on the occupation basis,
    so the symmetrized product is exact at the discrete level.  kappa =
    math.inf means no window; a finite kappa must pass `check_kappa`.
    """
    check_kappa(kappa, form_factor.cutoff)
    psi = np.asarray(state, dtype=float)
    P = np.asarray(P, dtype=float).reshape(3)
    grid = basis.grid
    r = grid.magnitudes
    chi, dchi = kappa_window(kappa, r)
    w2 = chi**2

    t_energy = float(np.sum(psi * psi * basis.dgamma_diagonal(w2 * r)))
    w_mom = basis.dgamma_vector_diagonal(w2[:, None] * grid.k)
    t_mixed = float(
        np.sum(psi * psi * np.einsum("sd,sd->s", w_mom, basis.total_momentum))
    )
    t_drift = float(np.sum(psi * psi * (w_mom @ P)))
    coeffs = np.sqrt(grid.vol) * dilated_form_factor(form_factor, grid.k, chi, dchi)
    t_source = g * displacement_expectation(basis, coeffs, psi)

    return VirialReport(
        residual=t_energy + t_mixed - t_drift - t_source,
        number_energy_term=t_energy,
        momentum_mixed_term=t_mixed,
        drift_term=t_drift,
        source_term=t_source,
        kappa=kappa,
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
    if mode not in ("parallel", "perpendicular"):
        raise DilationParameterError(f"unknown mode {mode!r}")
    psi = np.asarray(state, dtype=float)
    grad_E = np.asarray(grad_E, dtype=float).reshape(3)
    grid = basis.grid
    r = grid.magnitudes

    chi, dchi = plateau_ramp(shell.edges, r)
    xi = cone_weight(cone, grid.unit_vectors)
    w2 = chi**2 * xi**2

    if mode == "parallel":
        energy_weight = w2 * r
        kvec = grid.k
    else:
        along = grid.k @ cone.axis
        kperp = grid.k - np.outer(along, cone.axis)
        energy_weight = w2 * np.einsum("md,md->m", kperp, kperp) / r
        kvec = kperp

    t_energy = float(np.sum(psi * psi * basis.dgamma_diagonal(energy_weight)))
    w_mom = basis.dgamma_vector_diagonal(w2[:, None] * kvec)
    t_grad = float(np.sum(psi * psi * (w_mom @ grad_E)))
    symbol = dilated_form_factor(form_factor, grid.k, chi, dchi, cone, mode)
    t_source = g * displacement_expectation(basis, np.sqrt(grid.vol) * symbol, psi)

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
