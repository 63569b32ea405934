"""Lowest eigenpairs of sparse symmetric operators.

`lowest_eigenpairs` takes the first of four paths that fits:

- "diagonal": the matrix is diagonal (e.g. g = 0), so occupation states are
  eigenvectors;
- "dense": LAPACK, up to `dense_cutoff` rows;
- "schur": through the exact Schur complement of the matrix's trailing
  diagonal block, when the complement has at most `dense_cutoff` rows.
  Safeguarded Newton on the complement's lowest eigenvalue places a shift
  just below the ground energy and converges the ground pair on the way;
  further pairs come from block LOBPCG preconditioned by the exact inverse
  (H - shift)^-1;
- "lobpcg": block LOBPCG preconditioned by the inverse shifted diagonal
  otherwise (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517).

LOBPCG, on either path, stops as soon as the requested pairs converge.
Every path verifies residual norms against the requested tolerance and fixes
eigenvector signs for reproducible output files.  The iterative start vectors
are deterministic for the same reason.  The Schur path also certifies, by
Haynsworth inertia additivity, that no eigenvalue below the returned ones
was missed; the LOBPCG path carries no such certificate.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy import sparse

from cerenkov_fiber.hamiltonian import SparseHermitianOperator

DENSE_CUTOFF = 2000
# the Schur shift search starts this share of its first bracket below the
# Gershgorin bound, so that S there is strictly definite
SHIFT_BRACKET_SHARE = 1e-6
# vectors in the block that the shift search iterates, and its inverse
# iteration steps per factorization.  On the default config (|P| 0.5-1.9,
# g 0.05 and 0.3) two steps took 171 factorizations over 36 solves, three
# 159 and four 148; each step costs a small share of a factorization
SHIFT_BLOCK = 4
SHIFT_STEPS = 3
# Newton on the block's mu stops when a step moves less than this share of
# its first bracket, or after so many steps (it takes 2-6)
SHIFT_ROOT_TOL = 1e-14
SHIFT_ROOT_STEPS = 50
# the confirmed shift lies at least this share of the first bracket below the
# ground energy, clear of rounding
SHIFT_MARGIN_SHARE = 1e-12
# factorizations after which the shift search returns its pair unconfirmed,
# for the caller's residual check; bisection alone would by then have halved
# the bracket to rounding
SHIFT_MAX_FACTORIZATIONS = 64
# the "lobpcg" path preconditions with (diag H - sigma)^-1, sigma this far
# below min(diag H), so it is positive definite.  On a dim-368k n_max = 3
# fiber the ground state took 19 iterations at 5e-2, 58 at 1e-3 and 44 with
# sigma at the Gershgorin bound; four pairs took 31, 38 and 70
LOBPCG_SHIFT_OFFSET = 5e-2
# block vectors beyond `count`: a level just above the last requested one
# otherwise slows that vector's convergence.  Above threshold on a dim-12k
# n_max = 3 fiber (10 geometric radial x 4 polar nodes, |P| = 1.5,
# g = 0.05) the ground state alone missed the tolerance in 1000 iterations,
# with two guards it took 201.  Below threshold on the dim-368k fiber it
# took 18 and 17, where the guards triple the cost of a step, so
# `_lobpcg_pairs` sheds them once the gap above the requested levels is wide
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
    return sparse.csr_matrix(op)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0.0:
            vectors[:, j] = -col
    return vectors


def _checked_residuals(mat, vals, vecs, tol) -> np.ndarray:
    """Residual norms of the pairs; EigensolverError when one exceeds `tol`."""
    res = np.linalg.norm(mat @ vecs - vecs * vals[None, :], axis=0)
    if np.any(res > tol):
        raise EigensolverError(
            f"eigenpair residuals {res.max():.3e} exceed tolerance {tol:.1e}",
            best_eigenvalues=vals,
            best_residuals=res,
        )
    return res


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

    def scaled_coupling_t(self, divisors: np.ndarray):
        """B^T with row j divided by divisors[j], i.e. diag(divisors)^-1 B^T."""
        scaled = self.coupling_t.copy()
        scaled.data /= np.repeat(divisors, np.diff(scaled.indptr))
        return scaled

    def complement(self, s: float) -> np.ndarray:
        scaled = self.scaled_coupling_t(self.top - s)
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

    def solve(self, s: float, factor, x: np.ndarray) -> np.ndarray:
        """(H - s)^-1 x by block elimination, given a Cholesky factor of S(s).

        `x` is a vector or a block of column vectors.
        """
        t = len(self.lead)
        top_inv = 1.0 / (self.top - s)
        if x.ndim == 2:
            top_inv = top_inv[:, None]
        y_top = top_inv * x[t:]
        lead = scipy.linalg.cho_solve(
            factor, x[:t] - self.coupling @ y_top, check_finite=False
        )
        return np.concatenate([lead, y_top - top_inv * (self.coupling_t @ lead)])


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


def _block_newton(blocks: SchurBlocks, u: np.ndarray, lo: float, pole: float):
    """Newton from lo on mu_U(s) = lambda_min(U^T S(s) U), the block's mu.

    `u` has orthonormal columns.  Like mu, mu_U is concave and decreasing
    below min D (`pole`), and mu_U >= mu, so its root in (lo, pole), the
    least Rayleigh functional on span U, bounds E0 from above.  For the
    lowest eigenvector c of U^T S(s) U and w = (D - s)^-1 B^T U c, the Newton
    step is the Rayleigh quotient on H of psi = [U c; -w]; steps that leave
    the bracket on the root take its midpoint.  Only products with A, B and
    D are needed, never with H.

    Returns the root, the distance from it to the Newton step of the next
    eigenvector (an estimate of the gap to the next level), and psi at the
    root with its residual norm on H, both for unit psi.
    """
    bt = np.ascontiguousarray((blocks.coupling_t @ u).T)  # rows (B^T u_i)^T
    a_u = blocks.lead @ u
    small = u.T @ a_u
    left, right, s = lo, pole, lo
    for _ in range(SHIFT_ROOT_STEPS):
        at = s
        weighted = bt / (blocks.top - at)
        mu, coef = np.linalg.eigh(small - weighted @ bt.T - at * np.eye(len(bt)))
        w = coef.T @ weighted  # row i: (D - at)^-1 B^T U c_i
        steps = at + mu / (1.0 + np.einsum("ij,ij->i", w, w))
        if mu[0] > 0.0:
            left = at
        else:
            right = at
        if abs(steps[0] - at) <= SHIFT_ROOT_TOL * (pole - lo):
            break
        s = steps[0] if left < steps[0] < right else 0.5 * (left + right)
        if s == right:  # no root below the pole: the bracket is exhausted
            break
    root, c = steps[0], coef[:, 0]
    top = u @ c
    # H psi - root psi = [A top - B w - root top; (root - at) w]
    residual = np.hypot(
        np.linalg.norm(a_u @ c - blocks.coupling @ w[0] - root * top),
        (root - at) * np.linalg.norm(w[0]),
    )
    norm = np.sqrt(1.0 + w[0] @ w[0])
    gap = steps[1] - root if len(steps) > 1 else 0.0
    return root, gap, np.concatenate([top, -w[0]]) / norm, float(residual / norm)


def _ground_by_newton(mat, blocks: SchurBlocks, tol: float):
    """A shift just below the lowest eigenvalue E0, its factor, and the ground vector.

    Below min D, mu(s) = lambda_min S(s) is concave and decreasing, and E0
    is its only root.  For a unit u with S(s) u = mu u and
    w = (D - s)^-1 B^T u, the Newton iterate s + mu / (1 + |w|^2) is the
    Rayleigh quotient on H of psi = [u; -w], so it bounds E0 from above.
    Every trial stays below min(diag H) <= min D, where S(s) has a Cholesky
    factor exactly when s lies below E0, so mu is never evaluated directly.
    At each shift lo where the factor exists, a block
    of SHIFT_BLOCK vectors takes SHIFT_STEPS steps of residual inverse
    iteration (Neumaier, SIAM J. Numer. Anal. 22 (1985) 914), which
    converges to the top block of the ground state rather than to the
    lowest eigenvector of S(lo): U <- S(lo)^-1 M U, with M the secant
    (S(lo) - S(hi)) / (hi - lo) through the best upper bound hi.  Newton on
    the block's mu (`_block_newton`) then gives the block's Rayleigh
    functional, an upper bound on E0 with residual r.

    The next shift lies below that bound by a margin: the Temple bound
    r^2 / gap, or r itself (Krylov-Weinstein) when the gap is smaller than r
    or the last trial failed.  A failed Cholesky lowers hi.  After two
    failures, when the bound cannot be E0's (it lies more than r above hi),
    or when the step leaves the bracket [lo, hi], the midpoint is tried
    instead.  Once r meets the inner tolerance, the next successful Newton
    trial, at least SHIFT_MARGIN_SHARE of the first bracket below the bound,
    confirms a shift just below E0.

    Returns the shift, its Cholesky factor, the unit ground vector, and the
    counts of factorizations and inverse-iteration steps.  After
    SHIFT_MAX_FACTORIZATIONS it returns unconfirmed, and the caller's
    residual check reports the pair.
    """
    diag = mat.diagonal()
    radius = np.asarray(abs(mat).sum(axis=1)).ravel() - np.abs(diag)
    lo = float(np.min(diag - radius))
    hi = float(np.min(diag))
    lo -= SHIFT_BRACKET_SHARE * max(hi - lo, 1.0)  # strict: H - lo definite
    floor = SHIFT_MARGIN_SHARE * max(hi - lo, 1.0)
    factor = blocks.cholesky(lo)
    if factor is None:
        raise EigensolverError(
            f"Schur complement not definite below the Gershgorin bound {lo:.6e}"
        )
    factorizations = 1
    pole = float(blocks.top.min())
    lead = np.diagonal(blocks.lead)
    start = _start_block(lead, min(SHIFT_BLOCK, len(lead)))
    start[-1] = 1.0  # the last column uniform, which has the symmetry of H
    u = np.linalg.qr(start.T)[0]
    inner = tol * 1e-2
    failures = steps = 0
    while True:
        secant = None
        if hi < pole:
            secant = blocks.scaled_coupling_t((blocks.top - lo) * (blocks.top - hi))
        for _ in range(SHIFT_STEPS):
            if secant is not None:
                u = u + blocks.coupling @ (secant @ u)
            u = scipy.linalg.cho_solve(factor, u, check_finite=False)
            u = np.linalg.qr(u)[0]
        steps += SHIFT_STEPS
        root, gap, vector, residual = _block_newton(blocks, u, lo, pole)
        # the bound is E0's only if an eigenvalue within r of it
        # (Krylov-Weinstein) may lie in the bracket
        ground = root - residual < hi
        hi = min(hi, root)
        margin = residual if failures or gap <= residual else residual**2 / gap
        trial = root - max(margin, floor)
        converged = residual <= inner and not failures
        if converged and trial - lo <= floor:
            break  # the shift already lies within the margin below E0
        newton = ground and failures < 2 and lo < trial < hi
        if not newton:
            trial = 0.5 * (lo + hi)
        factorizations += 1
        attempt = blocks.cholesky(trial)
        if attempt is None:
            hi = trial
            failures += 1
        else:
            lo, factor, failures = trial, attempt, 0
            if newton and converged:
                break
        if hi - lo <= floor or factorizations == SHIFT_MAX_FACTORIZATIONS:
            break
    return lo, factor, vector, factorizations, steps


def _lowest(diag: np.ndarray, count: int) -> list:
    """np.argsort(diag, kind="stable")[:count] by `count` argmin passes.

    1.3 ms against 48 ms on the 368k `virial_large` diagonal; np.partition
    is as fast but pages in 0.3 MB more code.
    """
    rest = np.array(diag, dtype=float)
    order = []
    for _ in range(count):
        order.append(int(np.argmin(rest)))
        rest[order[-1]] = np.inf
    return order


def _start_block(diag: np.ndarray, block: int) -> np.ndarray:
    """Unit vectors on the lowest diagonal entries, as rows, plus noise.

    The fixed-seed random perturbation seeds every symmetry sector.
    """
    start = LOBPCG_START_NOISE * np.random.default_rng(0).standard_normal(
        (block, len(diag))
    )
    start[np.arange(block), _lowest(diag, block)] += 1.0
    return start


def _column_chunks(dim: int):
    """Column slices of LOBPCG_CHUNK, for in-place block updates."""
    return (slice(i, i + LOBPCG_CHUNK) for i in range(0, dim, LOBPCG_CHUNK))


def _orthonormal(rows, against=None):
    """Orthonormal basis, as rows, of the part of `rows` orthogonal to `against`.

    Vectors are rows here, contiguous in memory; `against` has orthonormal
    rows, and `rows` is overwritten.  A round of projection and SVQB
    (Stathopoulos & Wu, SIAM J. Sci. Comput. 23 (2002) 2165) diagonalizes
    the Gram matrix scaled to unit diagonal and maps the rows onto its
    eigenvectors over the roots of its eigenvalues in one pass.  Directions
    whose eigenvalue is below LOBPCG_DROP of the largest are dropped as
    linearly dependent, so the result may have fewer rows.  A second round
    follows, as in the DGKS test (Daniel, Gragg, Kaufman & Stewart, Math.
    Comp. 30 (1976) 772), when the projection cancelled more than half of
    a row's norm, a direction was dropped, or the scaled Gram matrix had an
    eigenvalue below 1/2; one round always left levels wrong by up to 1.0
    on small fiber models.

    Returns the rows and the number of rounds taken.
    """
    for rounds in (1, 2):
        coef = None if against is None else rows @ against.T
        gram = np.zeros((len(rows), len(rows)))
        for cols in _column_chunks(rows.shape[1]):
            chunk = rows[:, cols]
            if coef is not None:
                chunk -= coef @ against[:, cols]
            gram += chunk @ chunk.T
        squares = np.diagonal(gram)
        # against is orthonormal: a row's squared norm before the projection
        # is its squared norm after it plus the squared norm of its coef row
        cancelled = coef is not None and np.any(
            4.0 * squares < squares + np.einsum("ij,ij->i", coef, coef)
        )
        norms = np.sqrt(squares)
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
        if not cancelled and live.all() and keep.all() and lam[0] >= 0.5:
            break
    return rows, rounds


def _lobpcg_pairs(mat, count, tol, maxiter, precondition, pole):
    """Lowest `count` pairs by block LOBPCG.

    `precondition` maps a block of residuals, one per row, to search
    directions, and may overwrite it; `pole` is the shift sigma at which it
    approximates (H - sigma)^-1.  The start block is the unit vectors
    on the lowest diagonal entries, perturbed by a fixed-seed random block.
    Each step takes the Rayleigh-Ritz pairs of span[X, P, W]: the block X,
    the implicit direction P (the new Ritz vectors' part outside the old
    block) and the preconditioned residuals W of X's unconverged vectors
    (Knyazev 2001; Hetmaniuk & Lehoucq, J. Comput. Phys. 218 (2006) 324).
    All three are kept orthonormal, P in the small Ritz coordinates, where
    it costs no product with H.  Guard vectors beyond `count` speed up the
    last requested ones, but the run stops as soon as those `count` meet
    the inner tolerance, or after `maxiter` steps (LOBPCG_MAXITER when
    None).  A run that misses the tolerance returns its last iterate, whose
    residuals the caller checks.

    The guards are shed for the rest of the run once, at two consecutive
    steps, `pole` lies below every Ritz value theta and
    (theta_{count-1} - pole) < (theta_count - pole) / 2: by the
    Knyazev-Neymeyr bound (Linear Algebra Appl. 358 (2003) 95) a guard then
    buys little.  After one step the requested vectors may have reached
    their levels before the guards, which made multiplets cut by `count`
    look gapped.

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
    span = np.empty((3 * block, dim))
    image = np.empty_like(span)
    span[:block], rounds = _orthonormal(_start_block(diag, block))
    width = used = block  # rows of X; rows of span in the search space
    residual = np.empty((block, dim))
    for i in range(block):
        image[i] = mat @ span[i]
    iterations = 0
    dropped_at = None
    gapped = False  # the gap test held at the previous step
    while True:
        small = span[:used] @ image[:used].T
        # divide and conquer: inside a tight cluster of levels MRRR, the
        # default, returned Ritz vectors orthonormal only to 3e-12
        vals, coef = scipy.linalg.eigh(0.5 * (small + small.T), driver="evd")
        old = width
        if width > count:
            confirmed = gapped
            gapped = pole < vals[0] and 2.0 * (vals[count - 1] - pole) < (
                vals[count] - pole
            )
            if gapped and confirmed:
                width, dropped_at = count, iterations
                residual = residual[:count]
        vals, ritz = vals[:width], coef[:, :width].T
        step = ritz.copy()
        step[:, :old] = 0.0  # the first `old` coordinates are the old X
        directions, taken = _orthonormal(step, ritz)
        rounds += taken
        new = np.vstack([ritz, directions])
        kept = len(new)
        for cols in _column_chunks(dim):
            span[:kept, cols] = new @ span[:used, cols]
            image[:kept, cols] = new @ image[:used, cols]
            np.multiply(span[:width, cols], -vals[:, None], out=residual[:, cols])
            residual[:, cols] += image[:width, cols]
        norms = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        if np.all(norms[:count] <= inner) or iterations == limit:
            break
        active = residual if np.all(norms > inner) else residual[norms > inner]
        w, taken = _orthonormal(precondition(active), span[:kept])
        rounds += taken
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
        "guards_dropped_at": dropped_at,
        "orthonormalization_rounds": rounds,
        "start_vector": "lowest_diagonal_perturbed",
    }
    return vals[:count], span[:count].T.copy(), diagnostics


def _inertia_counts(blocks: SchurBlocks, vals: np.ndarray, tol: float) -> dict:
    """Count the eigenvalues below the returned ones by inertia.

    Each returned value lies within its residual (<= tol) of an eigenvalue,
    so at least len(vals) eigenvalues lie below tau = vals[-1] + 2 tol, and
    exactly len(vals) proves the returned values are the lowest.  A larger
    count is accepted only when the extra levels tie with the highest
    returned one (a symmetry multiplet cut by `count`).  "missed" counts the
    eigenvalues below vals[-1] - 2 tol that are not among `vals`, and
    "certified" holds when the count proves the returned values lowest.
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
    record["certified"] = top + inertia >= len(vals) and record["missed"] == 0
    return record


def _certify(vals: np.ndarray, record: dict) -> dict:
    """Raise unless the inertia record proves `vals` the lowest levels."""
    if not record["certified"]:
        count = record["count_top_block"] + record["count_schur"]
        raise EigensolverError(
            f"inertia certificate failed: {count} eigenvalues below "
            f"{record['certificate_tau']:.12e} for {len(vals)} pairs, "
            f"{record['missed']} lower levels missed",
            best_eigenvalues=vals,
        )
    return record


def _schur_pairs(mat, t: int, count, tol, maxiter):
    """Lowest `count` pairs through the Schur complement.

    Safeguarded Newton (`_ground_by_newton`) places the shift just below the
    ground energy and converges the ground vector on the way; for `count` =
    1 one step of inverse iteration at the shift polishes it.  More pairs,
    or one pair whose inertia count shows a missed lower level, come from
    LOBPCG preconditioned by the exact, positive definite (H - shift)^-1.
    Its start block seeds every symmetry sector, so it finds multiplet
    partners, and a ground level that the shift search cannot see: a
    top-block state without coupling, where mu has no root below min D.
    The inertia certificate checks the final pairs.
    """
    blocks = SchurBlocks(mat, t)
    shift, factor, vector, factorizations, steps = _ground_by_newton(
        mat, blocks, tol
    )
    diagnostics = {
        "schur_size": t,
        "shift": shift,
        "factorizations": factorizations,
        "inverse_steps": steps,
        "iterations": 0,
    }
    if count == 1:
        # the value is the shift-invert Rayleigh quotient
        image = blocks.solve(shift, factor, vector)
        vals = np.array([shift + 1.0 / (vector @ image)])
        vecs = (image / np.linalg.norm(image))[:, None]
        record = _inertia_counts(blocks, vals, tol)
    if count > 1 or not record["certified"]:

        def precondition(rows):
            return np.ascontiguousarray(blocks.solve(shift, factor, rows.T).T)

        vals, vecs, run = _lobpcg_pairs(
            mat, count, tol, maxiter, precondition, shift
        )
        diagnostics.update(run)
        # a run stopped by `maxiter` fails here, not in the certificate
        _checked_residuals(mat, vals, vecs, tol)
        record = _inertia_counts(blocks, vals, tol)
    diagnostics.update(_certify(vals, record))
    return vals, vecs, diagnostics


def lowest_eigenpairs(
    op,
    count: int,
    tol: float = 1e-9,
    maxiter: int | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
) -> SpectralResult:
    """Algebraically smallest `count` eigenpairs of a symmetric operator.

    The module docstring lists the paths: with t the start of the trailing
    diagonal block, a diagonal matrix (t = 0) takes "diagonal", a dimension
    up to `dense_cutoff` "dense", t up to `dense_cutoff` "schur", and a
    larger t "lobpcg".  `count` equal to a dimension above `dense_cutoff`
    raises ValueError.  Raises :class:`EigensolverError` when an iterative
    path fails to reach the tolerance, carrying the best residuals, or when
    the Schur path's inertia certificate fails.  `maxiter` bounds the
    LOBPCG steps on both iterative paths (LOBPCG_MAXITER when None); a
    one-pair Schur result that the certificate accepts takes none.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    mat = _as_csr(op)
    dim = mat.shape[0]
    if not 0 < count <= dim:
        raise ValueError(f"count={count} invalid for dimension {dim}")
    t = trailing_diagonal_start(mat)
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
    if dim <= dense_cutoff:
        vals, vecs = scipy.linalg.eigh(
            mat.toarray(), subset_by_index=(0, count - 1)
        )
        used = "dense"
    elif count == dim:
        raise ValueError(
            f"count={count} asks for the whole spectrum, and the dimension "
            f"exceeds dense_cutoff={dense_cutoff}, the largest dense matrix"
        )
    elif t <= dense_cutoff:
        vals, vecs, path_diagnostics = _schur_pairs(mat, t, count, tol, maxiter)
        diagnostics.update(path_diagnostics)
        used = "schur"
    else:
        # H_P is a free diagonal plus a coupling: (diag H - sigma)^-1
        diag = mat.diagonal()
        pole = diag.min() - LOBPCG_SHIFT_OFFSET
        scale = 1.0 / (diag - pole)
        vals, vecs, path_diagnostics = _lobpcg_pairs(
            mat, count, tol, maxiter, lambda w: np.multiply(w, scale, out=w), pole
        )
        diagnostics.update(path_diagnostics, certified=False)
        used = "lobpcg"

    vecs = _fix_signs(np.asarray(vecs))
    res = _checked_residuals(mat, vals, vecs, tol)
    return SpectralResult(
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=vecs,
        residual_norms=res,
        method=used,
        diagnostics=diagnostics,
    )
