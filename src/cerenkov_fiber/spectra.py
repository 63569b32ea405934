"""Mass-shell curves, gradients, perturbative oracles, and overlap spectra.

`FiberModel` bundles one discretized model (grid, basis, coupling profile)
and hands out Hamiltonians and eigenpairs; scans reuse it across momenta
and solve their points one after another, in increasing |P|.

Overlap spectra count the eigenvalues in their window by Schur inertia and
size one solve by that count: a Householder tridiagonalization that keeps
the vacuum fixed when the matrix is small or the window wide, shift-invert
Lanczos about P^2/2 with checked residuals otherwise.
"""

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from cerenkov_fiber import cerenkov
from cerenkov_fiber.fock import FockBasis
from cerenkov_fiber.formfactor import FormFactor
from cerenkov_fiber.grids import MomentumGrid
from cerenkov_fiber.hamiltonian import (
    FiberParams,
    SparseHermitianOperator,
    build_fiber_hamiltonian,
)
from cerenkov_fiber.observables import expect_field_momentum, expect_number
from cerenkov_fiber.solver import (
    DENSE_CUTOFF,
    EigensolverError,
    SchurBlocks,
    SpectralResult,
    lowest_eigenpairs,
    trailing_diagonal_start,
)
from cerenkov_fiber.weights import ShellSpec, shell_weight

P_MAGNITUDE_BUDGET = 10.0
DEGENERACY_TOL = 1e-9
# most eigenpairs one overlap solve computes around P^2/2
OVERLAP_PAIRS_CAP = 512
# ARPACK keeps 2k + 1 Lanczos vectors for k pairs; above this share of the
# dimension the dense tridiagonal path is faster (README, "Eigensolver paths")
LANCZOS_BASIS_SHARE = 1 / 6


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

    def params(self, P, g: float) -> FiberParams:
        return FiberParams(
            P=P, g=g, grid=self.grid, basis=self.basis, form_factor=self.form_factor
        )

    def hamiltonian(self, P, g: float) -> SparseHermitianOperator:
        return build_fiber_hamiltonian(self.params(P, g))

    def lowest(self, P, g: float, count: int = 1, tol=None) -> SpectralResult:
        return lowest_eigenpairs(
            self.hamiltonian(P, g),
            count=min(count, self.basis.dimension),
            tol=tol if tol is not None else self.solver_tol,
            maxiter=self.solver_maxiter,
            dense_cutoff=self.dense_cutoff,
        )

    def on_axis(self, p_mag: float) -> np.ndarray:
        return p_mag * self.grid.axis

    def ground_energy(self, p_mag: float, g: float) -> float:
        return self.lowest(self.on_axis(p_mag), g, count=1).ground_energy


def second_order_energy(
    P, ff: FormFactor, grid: MomentumGrid, min_gap: float = 1e-9
) -> float:
    """Second-order energy shift per unit g^2, as an independent oracle.

    E2 = - sum_m vol_m rho(|k_m|)^2 / gap_m with
    gap_m = (P - k_m)^2/2 + |k_m| - P^2/2.  Fails loudly on any resonant
    denominator, naming the offending mode.
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
    bad = active & (gaps <= min_gap)
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
    grad_fh: float = math.nan
    grad_fd: float = math.nan
    curvature_fd: float = math.nan
    shell_numbers: list = field(default_factory=list)
    vacuum_overlap: float = math.nan
    status: str = "ok"


@dataclass
class MassShellScan:
    """Rows of dispersion data at strictly increasing |P|."""

    rows: list
    g: float
    n_shell_max: int
    fingerprint: str | None = None

    def columns(self):
        shells = [f"n_shell_{n}" for n in range(1, self.n_shell_max + 1)]
        return ["p", "e0", "grad_e_fh", "grad_e_fd", "curvature_fd"] + shells + [
            "vacuum_overlap",
            "status",
        ]

    def to_csv(self, path) -> None:
        lines = []
        if self.fingerprint:
            lines.append(f"# fingerprint={self.fingerprint}")
        lines.append(",".join(self.columns()))
        for row in self.rows:
            cells = [
                repr(float(row.p)),
                repr(float(row.e0)),
                repr(float(row.grad_fh)),
                repr(float(row.grad_fd)),
                repr(float(row.curvature_fd)),
            ]
            cells += [repr(float(x)) for x in row.shell_numbers]
            cells += [repr(float(row.vacuum_overlap)), row.status]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json(self, path, config: dict | None = None) -> None:
        record = {
            "fingerprint": self.fingerprint,
            "g": self.g,
            "n_shell_max": self.n_shell_max,
            "columns": self.columns(),
            "rows": [
                {
                    "p": row.p,
                    "e0": row.e0,
                    "grad_e_fh": row.grad_fh,
                    "grad_e_fd": row.grad_fd,
                    "curvature_fd": row.curvature_fd,
                    "shell_numbers": list(row.shell_numbers),
                    "vacuum_overlap": row.vacuum_overlap,
                    "status": row.status,
                }
                for row in self.rows
            ],
        }
        if config is not None:
            record["config"] = config
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")


def mass_shell_scan(
    model: FiberModel,
    p_min: float,
    p_max: float,
    steps: int,
    g: float,
    n_shell_max: int = 3,
    fd_step: float = 1e-3,
    curvature_step: float = 1e-2,
    pairs: int = 4,
    fingerprint: str | None = None,
) -> MassShellScan:
    """Dispersion scan over |P| in [p_min, p_max] with shared grid/basis.

    Each point reports the ground pair, both gradient estimates, the FD
    curvature, shell-restricted boson numbers for n = 1..n_shell_max, and the
    vacuum overlap.  Solver failures mark the row `failed` and the scan
    continues.
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
            result = model.lowest(P, g, count=pairs)
            row.e0 = result.ground_energy
            psi = result.ground_vector()
            grad = fh_gradient(result, P, model.basis)
            row.grad_fh = float(grad @ model.grid.axis)
            row.grad_fd = grad_E_fd(model, p_mag, g, h=fd_step)
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

    rows = [point(p) for p in p_values]
    return MassShellScan(
        rows=rows, g=g, n_shell_max=n_shell_max, fingerprint=fingerprint
    )


@dataclass
class OverlapDistribution:
    """Spectral weights of the bare state over eigenpairs near P^2/2."""

    energies: np.ndarray
    weights: np.ndarray
    mean: float
    spread: float
    captured_weight: float
    window: tuple
    low_capture: bool

    def to_csv(self, path, fingerprint: str | None = None) -> None:
        lines = []
        if fingerprint:
            lines.append(f"# fingerprint={fingerprint}")
        lines.append(
            f"# captured_weight={repr(self.captured_weight)}"
            f" low_capture={str(self.low_capture).lower()}"
        )
        lines.append("energy,weight")
        for e, w in zip(self.energies, self.weights):
            lines.append(f"{repr(float(e))},{repr(float(w))}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def vacuum_overlap_distribution(
    model: FiberModel,
    P,
    g: float,
    window="auto",
    min_pairs: int = 20,
    capture_target: float = 0.99,
) -> OverlapDistribution:
    """Weights |<Psi_j, vacuum>|^2 over eigenpairs in a window around P^2/2.

    The automatic window is P^2/2 +/- 10 Gamma with Gamma the golden-rule
    estimate; below threshold (|P| <= 1) its half-width is at least
    2 g^2 |E2|, so that it holds the ground state the coupling shifted.  One
    solve covers the smallest interval symmetric about P^2/2 that contains the
    window: k is the number of eigenvalues in it, exact by Schur inertia when
    the complement fits under `dense_cutoff` and max(min_pairs, 32) to start
    with otherwise, at least `min_pairs` and at most OVERLAP_PAIRS_CAP.  The
    solve is dense when dim <= `dense_cutoff` or when ARPACK's 2k + 1 Lanczos
    vectors would exceed LANCZOS_BASIS_SHARE of dim, and shift-invert about
    P^2/2 otherwise; a shift-invert pair with a residual above `solver_tol`
    raises EigensolverError.  Rows are the eigenpairs in the window, or the
    `min_pairs` nearest P^2/2 when it holds fewer; the result is flagged when
    their weight stays below `capture_target`.
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
    mat = model.hamiltonian(P, g).matrix
    dim = mat.shape[0]
    count = None
    if dim > model.dense_cutoff:
        half = max(center - lo, hi - center)
        count = _eigenvalue_count(
            mat, model.dense_cutoff, center - half, center + half
        )
    k = min(max(min_pairs, 32 if count is None else count), OVERLAP_PAIRS_CAP)

    if dim <= model.dense_cutoff or 2 * k + 1 > LANCZOS_BASIS_SHARE * dim:
        vals, all_weights = _tridiagonal_vacuum_spectrum(mat)
    else:
        vals, vecs = _shift_invert_pairs(
            mat, center, k, (lo, hi), count is not None, capture_target
        )
        res = np.linalg.norm(mat @ vecs - vecs * vals[None, :], axis=0)
        if np.any(res > model.solver_tol):
            raise EigensolverError(
                f"overlap eigenpair residuals {res.max():.3e} exceed tolerance "
                f"{model.solver_tol:.1e}",
                best_eigenvalues=vals,
                best_residuals=res,
            )
        all_weights = vecs[0, :] ** 2

    selected = np.nonzero((vals >= lo) & (vals <= hi))[0]
    if len(selected) < min_pairs:
        nearest = np.argsort(np.abs(vals - center))[: min(min_pairs, len(vals))]
        selected = np.unique(np.concatenate([selected, nearest]))
    energies = vals[selected]
    weights = all_weights[selected]
    captured = float(weights.sum())
    if captured <= 0.0:
        raise EigensolverError("no spectral weight captured in the window")
    probs = weights / captured
    mean = float(probs @ energies)
    spread = float(probs @ (energies - mean) ** 2)
    low = captured < capture_target
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
    )


def _eigenvalue_count(mat, dense_cutoff: int, lo: float, hi: float):
    """Eigenvalues of H in [lo, hi) by Schur inertia; None when the complement
    of the trailing diagonal block exceeds `dense_cutoff` rows."""
    t = trailing_diagonal_start(mat)
    if t > dense_cutoff:
        return None
    blocks = SchurBlocks(mat, t)
    return sum(blocks.count_below(hi)) - sum(blocks.count_below(lo))


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
    vals, vecs = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
    return vals, vecs[0, :] ** 2


def _shift_invert_pairs(
    mat, center: float, k: int, window: tuple, counted: bool, capture_target: float
):
    """The k eigenpairs nearest `center` by shift-invert Lanczos, sorted.

    With a count, k pairs already cover the window: one call.  Without one,
    k doubles until the returned pairs (a run of the sorted spectrum about
    `center`) reach past both window edges, until the window's pairs carry
    `capture_target` of the vacuum weight, or until k reaches the cap.
    """
    dim = mat.shape[0]
    limit = min(OVERLAP_PAIRS_CAP, dim - 2)
    k = min(k, limit)
    mat = mat.tocsc()
    # fixed seed for reproducible files; not the uniform vector, which
    # has no component outside the fully symmetric sector
    v0 = np.random.default_rng(0).standard_normal(dim)
    lo, hi = window
    while True:
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                mat, k=k, sigma=center, which="LM", v0=v0
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise EigensolverError(f"overlap shift-invert solve: {exc}") from exc
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        inside = (vals >= lo) & (vals <= hi)
        if (
            counted
            or k >= limit
            or (vals[0] <= lo and vals[-1] >= hi)
            or np.sum(vecs[0, inside] ** 2) >= capture_target
        ):
            return vals, vecs
        k = min(2 * k, limit)


def golden_rule_estimate(model: FiberModel, P, g: float) -> float:
    """Golden-rule width used to size overlap windows; floor keeps it positive."""
    gamma = cerenkov.golden_rule_rate(P, g, model.form_factor)
    if gamma <= 0.0:
        # below threshold: fall back to the coupling scale so windows are finite
        gamma = max(abs(g), 1e-3) * 1e-2
    return gamma
