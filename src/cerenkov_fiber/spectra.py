"""Mass-shell curves, gradients, perturbative oracles, and overlap spectra.

`FiberModel` bundles one discretized model (grid, basis, coupling profile)
and hands out Hamiltonians and eigenpairs; scans reuse it across momenta
and solve their points one after another, in increasing |P|.

Overlap spectra are the vacuum's spectral measure near P^2/2.  Up to
`dense_cutoff` rows a Householder tridiagonalization that keeps the vacuum
fixed gives every eigenpair exactly.  Above it, Lanczos from the vacuum
builds the measure's Jacobi matrix until the Chebyshev-Markov-Stieltjes
bracket on the window weight is narrower than OVERLAP_BRACKET_WIDTH; the
rows are then the nodes and weights of its Gauss rule.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from cerenkov_fiber import cerenkov
from cerenkov_fiber.fock import FockBasis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import MomentumGrid
from cerenkov_fiber.hamiltonian import SparseHermitianOperator, build_fiber_hamiltonian
from cerenkov_fiber.observables import expect_field_momentum, expect_number
from cerenkov_fiber.solver import (
    DENSE_CUTOFF,
    EigensolverError,
    SpectralResult,
    lowest_eigenpairs,
)
from cerenkov_fiber.weights import ShellSpec, shell_weight

P_MAGNITUDE_BUDGET = 10.0
DEGENERACY_TOL = 1e-9
# a free-energy gap at or below this is resonant in the second-order sum
RESONANCE_GAP = 1e-9
# an overlap result whose rows carry less of the bare-state weight is flagged
OVERLAP_CAPTURE_TARGET = 0.99
# vacuum Lanczos stops once the certified bracket on the window weight is
# narrower than this
OVERLAP_BRACKET_WIDTH = 1e-4
# most bytes the vacuum Lanczos basis (m vectors of dim float64) may hold
LANCZOS_MEMORY_BUDGET = 1 << 30
# beta below this share of ||H||_1: the Krylov space is invariant
LANCZOS_BREAKDOWN = 1e-10
# DGKS: a second Gram-Schmidt pass when the first leaves less than this
# share of the vector's norm
DGKS_RATIO = 1.0 / math.sqrt(2.0)


class ResonantModeError(RuntimeError):
    """A grid mode sits on the emission resonance; the sum is ill-defined."""

    def __init__(self, mode: int, k, gap: float):
        super().__init__(
            f"mode {mode} at k = {np.asarray(k)} has free-energy gap "
            f"{gap:.3e} below threshold; second-order sum is resonant"
        )
        self.mode = mode
        self.gap = gap


@dataclass
class FiberModel:
    """A fixed discretized model: grid, truncated basis, coupling profile."""

    grid: MomentumGrid
    basis: FockBasis
    form_factor: FormFactor
    solver_tol: float = 1e-9
    dense_cutoff: int = DENSE_CUTOFF
    solver_maxiter: int | None = None

    def hamiltonian(self, P, g: float) -> SparseHermitianOperator:
        return build_fiber_hamiltonian(self.basis, self.form_factor, P, g)

    def lowest(self, P, g: float, count: int = 1) -> SpectralResult:
        return lowest_eigenpairs(
            self.hamiltonian(P, g),
            count=min(count, self.basis.dimension),
            tol=self.solver_tol,
            maxiter=self.solver_maxiter,
            dense_cutoff=self.dense_cutoff,
        )

    def on_axis(self, p_mag: float) -> np.ndarray:
        return p_mag * self.grid.axis

    def ground_energy(self, p_mag: float, g: float) -> float:
        return self.lowest(self.on_axis(p_mag), g, count=1).ground_energy


def second_order_energy(P, ff: FormFactor, grid: MomentumGrid) -> float:
    """Second-order energy shift per unit g^2, as an independent oracle.

    E2 = - sum_m vol_m rho(|k_m|)^2 / gap_m with
    gap_m = (P - k_m)^2/2 + |k_m| - P^2/2.  Fails loudly on any resonant
    denominator (gap <= RESONANCE_GAP on a coupled mode), naming the
    offending mode.
    """
    P = np.asarray(P, dtype=float).reshape(3)
    diff = P[None, :] - grid.k
    gaps = (
        0.5 * np.einsum("md,md->m", diff, diff)
        + grid.magnitudes
        - 0.5 * float(P @ P)
    )
    rho = ff.value(grid.magnitudes)
    active = rho != 0.0
    bad = active & (gaps <= RESONANCE_GAP)
    if np.any(bad):
        worst = int(np.argmin(np.where(bad, gaps, np.inf)))
        raise ResonantModeError(worst, grid.k[worst], float(gaps[worst]))
    return float(-np.sum(grid.vol[active] * rho[active] ** 2 / gaps[active]))


def ground_cluster(result: SpectralResult, tol: float = DEGENERACY_TOL):
    """Indices of the (possibly degenerate) ground cluster."""
    e0 = result.eigenvalues[0]
    return np.nonzero(result.eigenvalues - e0 <= tol)[0]


def fh_gradient(result: SpectralResult, P, basis: FockBasis) -> np.ndarray:
    """Gradient of the ground eigenvalue via P - <P^f>.

    Averaged over the degenerate ground cluster when one is present, since
    the formula is ill-defined on an arbitrary cluster member.
    """
    P = np.asarray(P, dtype=float).reshape(3)
    members = ground_cluster(result)
    grads = [
        P - expect_field_momentum(result.eigenvectors[:, j], basis) for j in members
    ]
    return np.mean(grads, axis=0)


def grad_E_fd(model: FiberModel, p_mag: float, g: float, h: float = 1e-3) -> float:
    """Central difference of the ground energy along the radial direction."""
    if p_mag - h <= 0.0:
        raise ValueError("FD stencil leaves the momentum range")
    return (
        model.ground_energy(p_mag + h, g) - model.ground_energy(p_mag - h, g)
    ) / (2.0 * h)


def curvature_fd(
    model: FiberModel,
    p_mag: float,
    g: float,
    h: float = 1e-2,
    e0: float | None = None,
) -> float:
    """Central second difference of the ground energy in |P|."""
    if p_mag - h <= 0.0:
        raise ValueError("FD stencil leaves the momentum range")
    if e0 is None:
        e0 = model.ground_energy(p_mag, g)
    return (
        model.ground_energy(p_mag + h, g)
        - 2.0 * e0
        + model.ground_energy(p_mag - h, g)
    ) / (h * h)


@dataclass
class ScanRow:
    p: float
    e0: float = math.nan
    grad_e_fh: float = math.nan
    grad_e_fd: float = math.nan
    curvature_fd: float = math.nan
    shell_numbers: list = field(default_factory=list)
    vacuum_overlap: float = math.nan
    status: str = "ok"


def mass_shell_scan(
    model: FiberModel,
    p_min: float,
    p_max: float,
    steps: int,
    g: float,
    n_shell_max: int = 3,
    fd_step: float = 1e-3,
    curvature_step: float = 1e-2,
) -> list[ScanRow]:
    """Dispersion scan over |P| in [p_min, p_max] with shared grid/basis.

    One row per point, at strictly increasing |P|, reports the ground pair, both gradient estimates, the FD
    curvature, shell-restricted boson numbers for n = 1..n_shell_max, and the
    vacuum overlap.  All five solves of a point ask for the ground pair
    only: for g != 0 and a coupling that reaches every mode the ground level
    is simple (Perron-Frobenius, after a sign change of the odd-boson-number
    states).  Solver failures mark the row `failed` and the scan continues.
    """
    if not 0.0 < p_min <= p_max <= P_MAGNITUDE_BUDGET:
        raise ValueError(
            f"scan range must satisfy 0 < p_min <= p_max <= {P_MAGNITUDE_BUDGET}"
        )
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > 1 and p_min == p_max:
        raise ValueError("multi-step scans need p_min < p_max")
    p_values = (
        np.array([p_min]) if steps == 1 else np.linspace(p_min, p_max, steps)
    )
    shell_w = [
        shell_weight(ShellSpec(n), model.grid.magnitudes) ** 2
        for n in range(1, n_shell_max + 1)
    ]

    def point(p_mag: float) -> ScanRow:
        row = ScanRow(p=float(p_mag))
        try:
            P = model.on_axis(p_mag)
            result = model.lowest(P, g)
            row.e0 = result.ground_energy
            psi = result.ground_vector()
            grad = fh_gradient(result, P, model.basis)
            row.grad_e_fh = float(grad @ model.grid.axis)
            row.grad_e_fd = grad_E_fd(model, p_mag, g, h=fd_step)
            row.curvature_fd = curvature_fd(
                model, p_mag, g, h=curvature_step, e0=row.e0
            )
            row.shell_numbers = [
                expect_number(psi, w, model.basis) for w in shell_w
            ]
            row.vacuum_overlap = float(psi[0] ** 2)
        except EigensolverError:
            row.status = "failed"
            row.shell_numbers = [math.nan] * n_shell_max
        return row

    return [point(p) for p in p_values]


@dataclass
class OverlapDistribution:
    """Spectral weights of the bare state near P^2/2.

    Rows lie inside the window: eigenpairs on the dense path; on the
    vacuum-Lanczos path the nodes and weights of an m-node Gauss rule
    (`nodes` = m), and `bracket` certifies the window's true weight.  A
    window that holds no row has no rows, `captured_weight` 0.0 and NaN
    `mean` and `spread`; on the Gauss path its bracket is at most
    OVERLAP_BRACKET_WIDTH wide above 0.
    """

    energies: np.ndarray
    weights: np.ndarray
    mean: float
    spread: float
    captured_weight: float
    window: tuple
    low_capture: bool
    nodes: int | None = None
    bracket: tuple | None = None


def vacuum_overlap_distribution(
    model: FiberModel,
    P,
    g: float,
    window="auto",
) -> OverlapDistribution:
    """Weights |<Psi_j, vacuum>|^2 of the spectrum in a window around P^2/2.

    The automatic window is P^2/2 +/- 10 Gamma with Gamma the golden-rule
    estimate; below threshold (|P| <= 1) its half-width is at least
    2 g^2 |E2|, so that it holds the ground state the coupling shifted.

    Up to `dense_cutoff` rows the rows are exact eigenpairs from a
    tridiagonalization that fixes the vacuum.  Above it they are the Gauss
    nodes and weights of the vacuum's spectral measure, from Lanczos started
    at the vacuum and run until the Chebyshev-Markov-Stieltjes bracket on the
    window weight is narrower than OVERLAP_BRACKET_WIDTH (or the Krylov space
    closes, where the rule is exact); EigensolverError when the basis would
    need more than LANCZOS_MEMORY_BUDGET bytes first.  On both paths the
    rows are those inside the window, possibly none.  The result is flagged
    when the rows' weight stays below OVERLAP_CAPTURE_TARGET.
    """
    P = np.asarray(P, dtype=float).reshape(3)
    center = 0.5 * float(P @ P)
    if window == "auto":
        half = 10.0 * golden_rule_estimate(model, P, g)
        if P @ P <= 1.0:
            # below threshold every free-energy gap is positive, so E2 is finite
            e2 = second_order_energy(P, model.form_factor, model.grid)
            half = max(half, 2.0 * g * g * abs(e2))
        window = (center - half, center + half)
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"overlap window needs finite LO < HI, got {window}")
    mat = model.hamiltonian(P, g).matrix
    gauss = mat.shape[0] > model.dense_cutoff
    if gauss:
        alpha, beta, exact = _vacuum_lanczos(mat, (lo, hi), LANCZOS_MEMORY_BUDGET)
        vals, all_weights = _gauss_rule(alpha, beta[:-1])
    else:
        vals, all_weights = _tridiagonal_vacuum_spectrum(mat)
    selected = (vals >= lo) & (vals <= hi)
    energies = vals[selected]
    weights = all_weights[selected]
    captured = float(weights.sum())
    nodes = bracket = None
    if gauss:
        nodes = len(vals)
        if exact:
            bracket = (captured, captured)
        else:
            below_lo, at_lo = _radau_split(alpha, beta, lo)
            below_hi, at_hi = _radau_split(alpha, beta, hi)
            bracket = (
                max(below_hi - below_lo - at_lo, 0.0),
                min(below_hi + at_hi - below_lo, 1.0),
            )
    if captured > 0.0:
        probs = weights / captured
        mean = float(probs @ energies)
        spread = float(probs @ (energies - mean) ** 2)
    else:  # no row in the window carries weight
        mean = spread = math.nan
    low = captured < OVERLAP_CAPTURE_TARGET
    if low:
        warnings.warn(
            f"overlap window captured only {captured:.4f} of the bare-state weight"
        )
    return OverlapDistribution(
        energies=energies,
        weights=weights,
        mean=mean,
        spread=spread,
        captured_weight=captured,
        window=(float(lo), float(hi)),
        low_capture=low,
        nodes=nodes,
        bracket=bracket,
    )


def _tridiagonal_vacuum_spectrum(mat):
    """All eigenvalues of H with the vacuum weight of each eigenvector.

    LAPACK dsytrd (lower) writes H = Q T Q^T with Q = H(1)...H(n-1), where
    the reflector H(i) = I - tau v v^T has v zero in rows 0..i-1.  So Q fixes
    the first basis vector, the vacuum, and the weights are the squared first
    components of T's eigenvectors (Golub & Welsch, Math. Comp. 23 (1969)
    221).  stemr keeps O(n) workspace beside the n^2 eigenvectors; stevd
    would add n^2 more.
    """
    a = mat.toarray()
    lwork, _ = scipy.linalg.lapack.dsytrd_lwork(len(a), lower=1)
    # a.T is the same symmetric matrix in Fortran order: reduced in place
    _, d, e, _, info = scipy.linalg.lapack.dsytrd(
        a.T, lower=1, lwork=int(lwork), overwrite_a=1
    )
    del a  # free the reduced matrix before the eigenvectors are allocated
    if info != 0:
        raise ValueError(f"dsytrd argument {-info} is invalid")
    return _gauss_rule(d, e)


def _gauss_rule(diagonal, off_diagonal):
    """Nodes and weights of a Jacobi matrix's Gauss rule: its eigenvalues and
    the squared first components of its eigenvectors (Golub & Welsch)."""
    vals, vecs = scipy.linalg.eigh_tridiagonal(
        diagonal, off_diagonal, lapack_driver="stemr"
    )
    return vals, vecs[0, :] ** 2


def _vacuum_lanczos(mat, window: tuple, memory_budget: int):
    """Jacobi matrix of the vacuum's spectral measure, grown until the
    Chebyshev-Markov-Stieltjes bracket on the window weight closes.

    Lanczos from the first basis vector with full reorthogonalization: after
    the three-term recurrence one classical Gram-Schmidt pass against the
    whole basis, and a second one on the DGKS test.  After m steps the
    (m + 1)-node Gauss-Radau rule with a node fixed at t puts the weight
    lambda(t) = 1 / sum_{k <= m} p_k(t)^2 on t, the Christoffel function of
    the orthonormal polynomials p_k, and the bracket is as wide as
    lambda(lo) + lambda(hi).  The p_k at both edges follow the recurrence
    step by step, so every step is checked for O(1).

    Returns (alpha, beta, exact): alpha_0..alpha_{m-1} and beta_1..beta_m,
    the last coupling the Jacobi matrix to the next, unbuilt step.  `exact`
    marks a Krylov space that closed (beta_m ~ 0 or m = dim), where the
    m-node Gauss rule is the measure itself.
    """
    dim = mat.shape[0]
    steps = min(dim, memory_budget // (8 * dim))
    breakdown = LANCZOS_BREAKDOWN * abs(mat).sum(axis=0).max()
    edges = np.asarray(window, dtype=float)
    p_prev, p_cur = np.zeros(2), np.ones(2)  # p_{-1}, p_0 at both edges
    christoffel_sum = np.ones(2)
    alpha, beta = [], []
    basis = np.empty((steps, dim))
    if steps:
        basis[0] = 0.0
        basis[0, 0] = 1.0
    for j in range(steps):
        v = basis[j]
        w = mat @ v
        a = float(v @ w)
        w -= a * v
        if j:
            w -= beta[-1] * basis[j - 1]
        done = basis[: j + 1]
        before = np.linalg.norm(w)
        w -= done.T @ (done @ w)
        b = float(np.linalg.norm(w))
        if b < DGKS_RATIO * before:
            w -= done.T @ (done @ w)
            b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        if b <= breakdown or j + 1 == dim:
            return np.array(alpha), np.array(beta), True
        p_prev, p_cur = p_cur, (
            (edges - a) * p_cur - (beta[-2] if j else 0.0) * p_prev
        ) / b
        christoffel_sum += p_cur**2
        # lambda < 1e-200 only falls further; stop the recurrence before the
        # p_k overflow
        far = christoffel_sum > 1e200
        p_prev[far] = p_cur[far] = 0.0
        if np.sum(1.0 / christoffel_sum) < OVERLAP_BRACKET_WIDTH:
            return np.array(alpha), np.array(beta), False
        if j + 1 < steps:
            basis[j + 1] = w / b
    raise EigensolverError(
        f"vacuum Lanczos: {steps} vectors of dim {dim} fill the "
        f"{memory_budget}-byte budget before the overlap bracket closes to "
        f"{OVERLAP_BRACKET_WIDTH:.0e}"
    )


def _radau_split(alpha, beta, t: float):
    """(weight below t, weight at t) of the Gauss-Radau rule with a node at t.

    The rule extends the Jacobi matrix by one row whose diagonal entry
    alpha_m = t + beta_m^2 / d_{m-1} makes t an eigenvalue, d_{m-1} being
    the last pivot of T_m - t I.  By Chebyshev-Markov-Stieltjes, the
    measure's weight strictly below t is at least the first number and its
    weight up to t at most their sum (Golub & Meurant, Matrices, Moments and
    Quadrature, 2010).
    """
    # a zero pivot (t a node of T_k) is replaced by a tiny negative one, as
    # in LAPACK's Sturm counts
    floor = -np.finfo(float).eps * (abs(t) + 1.0)
    pivot = (alpha[0] - t) or floor
    for a, b in zip(alpha[1:], beta[:-1]):
        pivot = (a - t - b * b / pivot) or floor
    extra = t + beta[-1] ** 2 / pivot
    vals, weights = _gauss_rule(np.append(alpha, extra), beta)
    at = int(np.argmin(np.abs(vals - t)))
    return float(weights[:at].sum()), float(weights[at])


def golden_rule_estimate(model: FiberModel, P, g: float) -> float:
    """Golden-rule width used to size overlap windows; floor keeps it positive."""
    gamma = cerenkov.golden_rule_rate(P, g, model.form_factor)
    if gamma <= 0.0:
        # below threshold: fall back to the coupling scale so windows are finite
        gamma = max(abs(g), 1e-3) * 1e-2
    return gamma
