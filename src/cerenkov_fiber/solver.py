"""Lowest eigenpairs of sparse symmetric operators.

`lowest_eigenpairs(method="auto")` takes the first of four paths that fits:

- "diagonal": the matrix is diagonal (e.g. g = 0), so occupation states are
  eigenvectors;
- "dense": LAPACK, up to `dense_cutoff` rows;
- "schur": shift-invert Lanczos (ARPACK) through the exact Schur complement
  of the matrix's trailing diagonal block, when the complement has at most
  `dense_cutoff` rows;
- "lobpcg": block LOBPCG preconditioned by the inverse shifted diagonal
  otherwise (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517), which stops as
  soon as the requested pairs converge.

Every path verifies residual norms against the requested tolerance and fixes
eigenvector signs for reproducible output files.  The iterative start vectors
are deterministic for the same reason.  The Schur path also certifies, by
Haynsworth inertia additivity, that no eigenvalue below the returned ones
was missed, and restarts deflated against the pairs found while one was; the
LOBPCG path carries no such certificate.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from cerenkov_fiber.hamiltonian import SparseHermitianOperator

DENSE_CUTOFF = 2000
# bisection for the shift stops at this share of the initial bracket
SHIFT_BRACKET_SHARE = 1e-6
# LOBPCG preconditions with (diag H - sigma)^-1, sigma this far below
# min(diag H), so it is positive definite.  On a dim-368k n_max = 3 fiber
# the ground state took 19 iterations at 5e-2, 58 at 1e-3 and 44 with sigma
# at the Gershgorin bound; four pairs took 31, 38 and 70
LOBPCG_SHIFT_OFFSET = 5e-2
# block vectors beyond `count`: a level just above the last requested one
# otherwise slows that vector's convergence.  Above threshold on a dim-12k
# n_max = 3 fiber the ground state alone took 1000 iterations, with two
# guards 202; below threshold on the dim-368k fiber 20 and 19, where the
# guards triple the cost of a step
LOBPCG_GUARDS = 2
# a direction whose Gram eigenvalue is below this share of the largest is
# dependent on the others and left out of the LOBPCG search space
LOBPCG_DROP = 1e-12
# iteration budget when the caller sets none
LOBPCG_MAXITER = 1000
# size of the random perturbation of the unit-vector start block, which
# seeds every symmetry sector
LOBPCG_START_NOISE = 1e-3
# columns per chunk of an in-place LOBPCG block update: the temporaries stay
# small and the chunk of a block stays in cache
LOBPCG_CHUNK = 8192


class EigensolverError(RuntimeError):
    """Iterative solve failed; carries the best eigenpair residuals reached."""

    def __init__(self, message, best_eigenvalues=None, best_residuals=None):
        super().__init__(message)
        self.best_eigenvalues = best_eigenvalues
        self.best_residuals = best_residuals


@dataclass
class SpectralResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit norm, signs fixed
    residual_norms: np.ndarray
    method: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_vector(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def _as_csr(op):
    if isinstance(op, SparseHermitianOperator):
        return op.matrix
    if sparse.issparse(op):
        return op.tocsr()
    return sparse.csr_matrix(np.asarray(op, dtype=float))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0.0:
            vectors[:, j] = -col
    return vectors


def _residuals(mat, vals, vecs):
    res = mat @ vecs - vecs * vals[None, :]
    return np.linalg.norm(res, axis=0)


def trailing_diagonal_start(mat) -> int:
    """Smallest t such that rows and columns t.. of a symmetric CSR matrix are diagonal.

    By symmetry only entries right of the diagonal matter, and with sorted
    indices the rightmost entry of a row is its last stored one: t is one
    past the last row that stores an entry right of its diagonal.  t = 0
    means the matrix is diagonal.
    """
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    ends = mat.indptr[1:]
    rows = np.nonzero(ends > mat.indptr[:-1])[0]
    coupled = rows[mat.indices[ends[rows] - 1] > rows]
    return int(coupled[-1]) + 1 if coupled.size else 0


class SchurBlocks:
    """H = [[A, B], [B^T, D]] split at t, with D diagonal.

    The Schur complement S(s) = A - s - B (D - s)^-1 B^T is a dense t x t
    matrix.  Haynsworth inertia additivity gives, for s off the diagonal of D,
    #(eigenvalues of H below s) = #(D < s) + #(negative eigenvalues of S(s)).
    """

    def __init__(self, mat, t: int):
        self.lead = mat[:t, :t].toarray()
        self.coupling = mat[:t, t:].tocsr()
        self.coupling_t = self.coupling.T.tocsr()
        self.top = mat.diagonal()[t:]

    def complement(self, s: float) -> np.ndarray:
        scaled = self.coupling_t.copy()
        scaled.data /= np.repeat(self.top - s, np.diff(scaled.indptr))
        out = self.lead - (self.coupling @ scaled).toarray()
        out[np.diag_indices_from(out)] -= s
        return out

    def cholesky(self, s: float):
        """Cholesky factor of S(s), or None when S(s) is not positive definite."""
        try:
            return scipy.linalg.cho_factor(
                self.complement(s), lower=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            return None

    def count_below(self, s: float) -> tuple:
        """(#(D < s), negative inertia of S(s)); their sum counts H below s."""
        _, blocks, _ = scipy.linalg.ldl(self.complement(s), check_finite=False)
        return int(np.count_nonzero(self.top < s)), _negative_inertia(blocks)

    def inverse(self, s: float, factor) -> LinearOperator:
        """(H - s)^-1 by block elimination, given a Cholesky factor of S(s)."""
        t = len(self.lead)
        top_inv = 1.0 / (self.top - s)

        def apply(x):
            x = np.ravel(x)
            y_top = top_inv * x[t:]
            lead = scipy.linalg.cho_solve(
                factor, x[:t] - self.coupling @ y_top, check_finite=False
            )
            return np.concatenate([lead, y_top - top_inv * (self.coupling_t @ lead)])

        dim = t + len(self.top)
        return LinearOperator((dim, dim), matvec=apply, dtype=float)


def _negative_inertia(blocks: np.ndarray) -> int:
    """Negative eigenvalue count of LDL^T's block diagonal (1x1 and 2x2)."""
    diag = np.diagonal(blocks)
    off = np.diagonal(blocks, 1)
    starts = np.nonzero(off)[0]  # each 2x2 block [[a, b], [b, c]] starts here
    single = np.ones(len(diag), dtype=bool)
    single[starts] = single[starts + 1] = False
    a, c, b = diag[starts], diag[starts + 1], off[starts]
    det = a * c - b * b
    pair_negatives = np.where(det < 0.0, 1, np.where(a + c < 0.0, 2, 0))
    return int(np.count_nonzero(diag[single] < 0.0) + pair_negatives.sum())


def _shift_below_ground(mat, blocks: SchurBlocks):
    """A shift s just below the lowest eigenvalue, with Cholesky of S(s).

    The lowest eigenvalue lies between the Gershgorin bound and min(diag H),
    and S(s) is positive definite exactly when s lies below it (s stays below
    min(diag H), hence below D).  Bisection on Cholesky success narrows the
    bracket to SHIFT_BRACKET_SHARE of its width and returns its lower end.
    """
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    lo = float(np.min(diag - radius))
    hi = float(np.min(diag))
    lo -= SHIFT_BRACKET_SHARE * max(hi - lo, 1.0)  # strict: H - lo definite
    width = hi - lo
    factor = blocks.cholesky(lo)
    if factor is None:
        raise EigensolverError(
            f"Schur complement not definite below the Gershgorin bound {lo:.6e}"
        )
    factorizations = 1
    while hi - lo > SHIFT_BRACKET_SHARE * width:
        mid = 0.5 * (lo + hi)
        factorizations += 1
        trial = blocks.cholesky(mid)
        if trial is None:
            hi = mid
        else:
            lo, factor = mid, trial
    return lo, factor, factorizations


def _arpack(mat, count, tol, maxiter, v0, **selection):
    """ARPACK's `count` lowest pairs, sorted; failures become EigensolverError.

    `selection` is `which` and, for shift-invert, `sigma` and `OPinv`.
    """
    try:
        vals, vecs = eigsh(
            mat, k=count, tol=tol * 1e-2, maxiter=maxiter, v0=v0, **selection
        )
    except ArpackNoConvergence as exc:
        best_vals = np.asarray(exc.eigenvalues)
        best_res = (
            _residuals(mat, best_vals, exc.eigenvectors)
            if exc.eigenvectors is not None and len(best_vals)
            else None
        )
        raise EigensolverError(
            f"Lanczos did not converge within the iteration budget "
            f"({len(best_vals)} of {count} pairs converged)",
            best_eigenvalues=best_vals,
            best_residuals=best_res,
        ) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _column_chunks(dim: int):
    """Column slices of LOBPCG_CHUNK, for in-place block updates."""
    return (slice(i, i + LOBPCG_CHUNK) for i in range(0, dim, LOBPCG_CHUNK))


def _orthonormal(rows, against=None):
    """Orthonormal basis, as rows, of the part of `rows` orthogonal to `against`.

    Vectors are rows here, contiguous in memory; `against` has orthonormal
    rows, and `rows` is overwritten.  Two rounds of projection and SVQB
    (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002) 2165): the Gram
    matrix scaled to unit diagonal is diagonalized, and the rows are mapped
    onto its eigenvectors over the roots of its eigenvalues in one pass.
    Directions whose eigenvalue is below LOBPCG_DROP of the largest are
    dropped as linearly dependent, so the result may have fewer rows.  One
    round is not enough: the loss of orthogonality it leaves gave levels
    wrong by up to 1.0 on small fiber models.
    """
    for _ in range(2):
        coef = None if against is None else rows @ against.T
        gram = np.zeros((len(rows), len(rows)))
        for cols in _column_chunks(rows.shape[1]):
            chunk = rows[:, cols]
            if coef is not None:
                chunk -= coef @ against[:, cols]
            gram += chunk @ chunk.T
        norms = np.sqrt(np.diagonal(gram))
        live = norms > 0.0
        if not live.all():
            rows, gram, norms = rows[live], gram[np.ix_(live, live)], norms[live]
        if len(rows) == 0:
            break
        lam, rot = np.linalg.eigh(gram / np.outer(norms, norms))
        keep = lam > LOBPCG_DROP * lam[-1]
        transform = (rot[:, keep] / np.sqrt(lam[keep]) / norms[:, None]).T
        for cols in _column_chunks(rows.shape[1]):
            rows[: len(transform), cols] = transform @ rows[:, cols]
        rows = rows[: len(transform)]
    return rows


def _lobpcg_pairs(mat, count, tol, maxiter):
    """Lowest `count` pairs by block LOBPCG.

    H_P is a free diagonal plus a coupling, so (diag H - sigma)^-1 is a good
    preconditioner.  The start block is the unit vectors on the lowest
    diagonal entries, perturbed by a fixed-seed random block.  Each step
    takes the Rayleigh-Ritz pairs of span[X, P, W]: the block X, the
    implicit direction P (the new Ritz vectors' part outside the old block)
    and the preconditioned residuals W of X's unconverged vectors (Knyazev
    2001; Hetmaniuk & Lehoucq, J. Comput. Phys. 218 (2006) 324).  All three
    are kept orthonormal, P in the small Ritz coordinates, where it costs no
    product with H.  Guard vectors beyond `count` speed up the last
    requested ones, but the run stops as soon as those `count` meet the
    inner tolerance.  A run that misses it returns its last iterate, whose
    residuals the caller checks.

    H is so sparse that the dense block operations, not the products with
    H, set the cost of a step.  So the search space and its image under H
    live in two preallocated arrays with one vector per row, [X; P; W] in
    that order, which a step updates in place a chunk of columns at a time.
    """
    dim = mat.shape[0]
    block = min(count + LOBPCG_GUARDS, dim)
    inner = tol * 1e-2
    limit = LOBPCG_MAXITER if maxiter is None else maxiter
    diag = mat.diagonal()
    scale = 1.0 / (diag - (diag.min() - LOBPCG_SHIFT_OFFSET))
    span = np.empty((3 * block, dim))
    image = np.empty_like(span)
    start = LOBPCG_START_NOISE * np.random.default_rng(0).standard_normal(
        (block, dim)
    )
    start[np.arange(block), np.argsort(diag, kind="stable")[:block]] += 1.0
    span[:block] = _orthonormal(start)
    del start
    used = block  # rows of span in the search space
    residual = np.empty((block, dim))
    for i in range(block):
        image[i] = mat @ span[i]
    iterations = 0
    while True:
        small = span[:used] @ image[:used].T
        vals, coef = scipy.linalg.eigh(0.5 * (small + small.T))
        vals, ritz = vals[:block], coef[:, :block].T
        step = ritz.copy()
        step[:, :block] = 0.0  # the first `block` coordinates are the old X
        new = np.vstack([ritz, _orthonormal(step, ritz)])
        kept = len(new)
        for cols in _column_chunks(dim):
            span[:kept, cols] = new @ span[:used, cols]
            image[:kept, cols] = new @ image[:used, cols]
            np.multiply(span[:block, cols], -vals[:, None], out=residual[:, cols])
            residual[:, cols] += image[:block, cols]
        norms = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        if np.all(norms[:count] <= inner) or iterations == limit:
            break
        active = residual if np.all(norms > inner) else residual[norms > inner]
        active *= scale
        w = _orthonormal(active, span[:kept])
        if len(w) == 0:  # nothing left to search: the run has stalled
            break
        iterations += 1
        used = kept + len(w)
        span[kept:used] = w
        for i in range(kept, used):
            image[i] = mat @ span[i]
    diagnostics = {
        "iterations": iterations,
        "block": block,
        "start_vector": "lowest_diagonal_perturbed",
        "certified": False,
    }
    return vals[:count], span[:count].T.copy(), diagnostics


def _inertia_counts(blocks: SchurBlocks, vals: np.ndarray, tol: float) -> dict:
    """Count the eigenvalues below the returned ones by inertia.

    Each returned value lies within its residual (<= tol) of an eigenvalue,
    so at least len(vals) eigenvalues lie below tau = vals[-1] + 2 tol, and
    exactly len(vals) proves the returned values are the lowest.  A larger
    count is accepted only when the extra levels tie with the highest
    returned one (a symmetry multiplet cut by `count`).  "missed" counts the
    eigenvalues below vals[-1] - 2 tol that are not among `vals`.
    """
    eta = 2.0 * tol
    tau = float(vals[-1]) + eta
    top, inertia = blocks.count_below(tau)
    record = {
        "certificate_tau": tau,
        "count_top_block": top,
        "count_schur": inertia,
        "missed": 0,
    }
    if top + inertia != len(vals):
        below = float(vals[-1]) - eta
        found = sum(blocks.count_below(below))
        record["count_below_top_tie"] = found
        record["missed"] = found - int(np.count_nonzero(vals < below))
    return record


def _certify(blocks: SchurBlocks, vals: np.ndarray, tol: float, record=None) -> dict:
    """Prove that no eigenvalue below the returned ones was missed, or raise."""
    if record is None:
        record = _inertia_counts(blocks, vals, tol)
    count = record["count_top_block"] + record["count_schur"]
    if count < len(vals) or record["missed"] != 0:
        raise EigensolverError(
            f"inertia certificate failed: {count} eigenvalues below "
            f"{record['certificate_tau']:.12e} for {len(vals)} pairs, "
            f"{record['missed']} lower levels missed",
            best_eigenvalues=vals,
        )
    return record


def _project_out(found: np.ndarray, x) -> np.ndarray:
    x = np.ravel(x)
    return x - found @ (found.T @ x)


def _deflated(inverse: LinearOperator, found: np.ndarray) -> LinearOperator:
    """The operator restricted to the orthogonal complement of `found`."""
    return LinearOperator(
        inverse.shape,
        matvec=lambda x: _project_out(found, inverse @ _project_out(found, x)),
        dtype=float,
    )


def _schur_pairs(mat, t: int, count, tol, maxiter):
    """Lowest `count` pairs by shift-invert through the Schur complement.

    Single-vector Lanczos sees one vector per distinct eigenvalue, and the
    uniform start none outside the fully symmetric sector, so on grids with
    azimuthal symmetry it can skip a level.  The inertia count shows how
    many were skipped; each restart then runs on (H - s)^-1 deflated against
    the pairs found, from a fixed-seed random start, which finds at least
    the lowest skipped level.
    """
    dim = mat.shape[0]
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    blocks = SchurBlocks(mat, t)
    shift, factor, factorizations = _shift_below_ground(mat, blocks)
    inverse = blocks.inverse(shift, factor)
    vals, vecs = _arpack(
        mat, count, tol, maxiter, v0, sigma=shift, which="LM", OPinv=inverse
    )
    restarts = 0
    rng = np.random.default_rng(0)
    record = _inertia_counts(blocks, vals, tol)
    while record["missed"] > 0 and restarts < count:
        restarts += 1
        more_vals, more_vecs = _arpack(
            mat,
            min(record["missed"], count),
            tol,
            maxiter,
            _project_out(vecs, rng.standard_normal(dim)),
            sigma=shift,
            which="LM",
            OPinv=_deflated(inverse, vecs),
        )
        vals = np.concatenate([vals, more_vals])
        vecs = np.hstack([vecs, more_vecs])
        order = np.argsort(vals, kind="stable")[:count]
        vals, vecs = vals[order], vecs[:, order]
        record = _inertia_counts(blocks, vals, tol)
    diagnostics = {
        "start_vector": "uniform",
        "schur_size": t,
        "shift": shift,
        "factorizations": factorizations,
        "deflated_restarts": restarts,
    }
    diagnostics.update(_certify(blocks, vals, tol, record))
    return vals, vecs, diagnostics


def lowest_eigenpairs(
    op,
    count: int,
    tol: float = 1e-9,
    method: str = "auto",
    maxiter: int | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
) -> SpectralResult:
    """Algebraically smallest `count` eigenpairs of a symmetric operator.

    `method` is one of "auto", "dense", "lobpcg"; the module docstring lists
    the paths "auto" chooses between.  Raises :class:`EigensolverError` when
    an iterative path fails to reach the tolerance, carrying the best
    residuals, or when the Schur path's inertia certificate fails.
    `maxiter` None means ARPACK's default on the Schur path and
    LOBPCG_MAXITER on the LOBPCG path.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if method not in ("auto", "dense", "lobpcg"):
        raise ValueError(f"unknown method {method!r}")
    mat = _as_csr(op)
    dim = mat.shape[0]
    if not 0 < count <= dim:
        raise ValueError(f"count={count} invalid for dimension {dim}")
    t = trailing_diagonal_start(mat) if method == "auto" else None
    diagnostics = {"dimension": dim}
    if t == 0:
        diag = mat.diagonal()
        order = np.argsort(diag, kind="stable")[:count]
        vecs = np.zeros((dim, count))
        vecs[order, np.arange(count)] = 1.0
        return SpectralResult(
            eigenvalues=diag[order].astype(float),
            eigenvectors=vecs,
            residual_norms=np.zeros(count),
            method="diagonal",
            diagnostics=diagnostics,
        )
    if count == dim or method == "dense" or (
        method == "auto" and dim <= dense_cutoff
    ):
        vals, vecs = scipy.linalg.eigh(
            mat.toarray(), subset_by_index=(0, count - 1)
        )
        used = "dense"
    elif method == "auto" and t <= dense_cutoff:
        vals, vecs, path_diagnostics = _schur_pairs(mat, t, count, tol, maxiter)
        diagnostics.update(path_diagnostics)
        used = "schur"
    else:
        vals, vecs, path_diagnostics = _lobpcg_pairs(mat, count, tol, maxiter)
        diagnostics.update(path_diagnostics)
        used = "lobpcg"

    vecs = _fix_signs(np.asarray(vecs))
    res = _residuals(mat, vals, vecs)
    if np.any(res > tol):
        raise EigensolverError(
            f"eigenpair residuals {res.max():.3e} exceed tolerance {tol:.1e}",
            best_eigenvalues=vals,
            best_residuals=res,
        )
    return SpectralResult(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        residual_norms=res,
        method=used,
        diagnostics=diagnostics,
    )
