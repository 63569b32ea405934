"""Truncated bosonic occupation-number basis and ladder-operator matrix elements.

A state is a multiset of grid-mode indices, its nondecreasing mode word.  The
basis stores all words as one int array, one row per state, padded with -1
on the right.  The canonical order is graded by total boson number, then
lexicographic in the word; this tie-breaking is frozen so result files
reproduce bit-for-bit.  The vacuum is always ordinal 0.

Each state has an integer key, its boson number followed by the word's
digits (mode + 1, padding 0) in base M + 1, so keys increase strictly in the
canonical order and a word is found by binary search.  The single-boson-
removal table (transitions) is built with the basis, so a basis has no lazy
state after construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from cerenkov_fiber.grids import MomentumGrid

DEFAULT_DIM_BUDGET = 400_000

# Candidate words built at once when extending a level; bounds the memory of
# the enumeration on large grids with a tight energy cut.
CANDIDATE_BLOCK = 1 << 20


class BasisSizeError(RuntimeError):
    """Basis dimension exceeds the configured budget."""

    def __init__(self, dimension: int, budget: int):
        super().__init__(
            f"basis dimension {dimension} exceeds the configured budget {budget}"
        )
        self.dimension = dimension
        self.budget = budget


def untruncated_dimension(n_modes: int, n_max: int) -> int:
    """Stars-and-bars count: sum_n C(M + n - 1, n) for n = 0..n_max."""
    return sum(math.comb(n_modes + n - 1, n) for n in range(n_max + 1))


@dataclass
class FockBasis:
    """Enumerated occupation basis: padded mode words, keys and transitions.

    `words` has shape (dimension, width), width being the largest boson
    number present; rows are in the canonical order.
    """

    grid: MomentumGrid
    n_max: int
    e_cut: float | None
    words: np.ndarray

    def __post_init__(self):
        words = self.words
        width = words.shape[1]
        base = self.grid.n_modes + 1
        if (width + 1) * base**width > np.iinfo(np.int64).max:
            raise ValueError(
                f"{width}-boson words on {self.grid.n_modes} modes overflow "
                "the int64 state keys"
            )
        self._level_key = base**width
        self._powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        self._keys = self._key(words)

        # One transition per run of equal modes in a word: its first position.
        occupied = words >= 0
        starts = occupied.copy()
        starts[:, 1:] &= words[:, 1:] != words[:, :-1]
        run = occupied.astype(np.int64)
        for pos in range(width - 2, -1, -1):
            run[:, pos] += run[:, pos + 1] * (words[:, pos + 1] == words[:, pos])
        cols = np.zeros_like(words)
        for pos in range(width):
            rows = np.nonzero(starts[:, pos])[0]
            shorter = np.delete(words[rows], pos, axis=1)
            padded = np.hstack([shorter, np.full((len(rows), 1), -1)])
            cols[rows, pos] = np.searchsorted(self._keys, self._key(padded))
        state, pos = np.nonzero(starts)
        self._counts = run[state, pos].astype(np.float64)
        self._table = (
            state,
            cols[state, pos],
            words[state, pos],
            np.sqrt(self._counts),
        )

        self.boson_count = occupied.sum(axis=1).astype(np.float64)
        self.free_field_energy = self.dgamma_diagonal(self.grid.magnitudes)
        self.total_momentum = self.dgamma_vector_diagonal(self.grid.k)

    def _key(self, words: np.ndarray) -> np.ndarray:
        count = (words >= 0).sum(axis=1)
        return count * self._level_key + (words + 1) @ self._powers

    @property
    def dimension(self) -> int:
        return len(self.words)

    def one_boson_ordinals(self) -> np.ndarray:
        """Ordinal of each mode's one-boson state; -1 where truncated away."""
        out = np.full(self.grid.n_modes, -1, dtype=np.int64)
        state, _, modes, _ = self._table
        single = self.boson_count[state] == 1
        out[modes[single]] = state[single]
        return out

    def dgamma_diagonal(self, mode_weights) -> np.ndarray:
        """Diagonal of dGamma(w): per state, sum of count * w(mode)."""
        w = np.asarray(mode_weights, dtype=float)
        state, _, modes, _ = self._table
        vals = self._counts * w[modes]
        return np.bincount(state, weights=vals, minlength=self.dimension)

    def dgamma_vector_diagonal(self, mode_vectors) -> np.ndarray:
        """Per-state vector sum of count * v(mode); shape (dim, 3)."""
        v = np.asarray(mode_vectors, dtype=float)
        out = np.empty((self.dimension, v.shape[1]))
        for d in range(v.shape[1]):
            out[:, d] = self.dgamma_diagonal(v[:, d])
        return out

    def transitions(self):
        """All single-boson-removal transitions (rows, cols, modes, amps).

        For each state j and occupied mode m with count c, the state i with
        one fewer boson at m satisfies  b†_m |i> = sqrt(c) |j>.  Ordered by
        state, then mode.  Reused for interaction assembly and
        smeared-operator expectations.
        """
        return self._table


def _extend(parents, energy, mode_energy, limit):
    """Blocks of words one boson longer than `parents`, with energy <= limit.

    Each parent word is extended by every mode >= its last mode, and the
    energy accumulates in word order.  Parents in lexicographic order give
    children in lexicographic order.  Yields (words, energies) per block of
    at most CANDIDATE_BLOCK candidates (one parent's worth at least).
    """
    n_modes = len(mode_energy)
    first = parents[:, -1] if parents.shape[1] else np.zeros(len(parents), np.int64)
    counts = n_modes - first
    ends = np.cumsum(counts)
    begins = ends - counts
    lo = 0
    while lo < len(parents):
        done = begins[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, done + CANDIDATE_BLOCK, "right")))
        parent = np.repeat(np.arange(lo, hi), counts[lo:hi])
        mode = first[parent] + np.arange(done, ends[hi - 1]) - begins[parent]
        e = energy[parent] + mode_energy[mode]
        keep = e <= limit
        yield np.hstack([parents[parent[keep]], mode[keep, None]]), e[keep]
        lo = hi


def build_basis(
    grid: MomentumGrid, n_max: int, e_cut: float | None = None
) -> FockBasis:
    """Enumerate all admissible occupations in the frozen canonical order.

    Level n holds the n-boson words.  With an energy cut, a word is kept when
    its energy, summed in word order, is at most e_cut (plus a relative
    1e-12 slack); every prefix of a kept word is kept too, since mode
    energies are nonnegative, so each level extends the one before.  Raises
    BasisSizeError once the dimension passes DEFAULT_DIM_BUDGET.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if e_cut is None:
        dim = untruncated_dimension(grid.n_modes, n_max)
        if dim > DEFAULT_DIM_BUDGET:
            raise BasisSizeError(dim, DEFAULT_DIM_BUDGET)
        limit = math.inf
    else:
        limit = float(e_cut) + 1e-12 * max(1.0, abs(float(e_cut)))
    levels = [np.zeros((1, 0), dtype=np.int64)]
    energy = np.zeros(1)
    dim = 1
    for _ in range(n_max):
        blocks = []
        for block in _extend(levels[-1], energy, grid.magnitudes, limit):
            dim += len(block[0])
            if dim > DEFAULT_DIM_BUDGET:
                raise BasisSizeError(dim, DEFAULT_DIM_BUDGET)
            blocks.append(block)
        words = np.concatenate([w for w, _ in blocks])
        if len(words) == 0:
            break  # longer words only add energy
        levels.append(words)
        energy = np.concatenate([e for _, e in blocks])
    width = len(levels) - 1
    words = np.concatenate(
        [
            np.pad(w, ((0, 0), (0, width - w.shape[1])), constant_values=-1)
            for w in levels
        ]
    )
    return FockBasis(grid=grid, n_max=n_max, e_cut=e_cut, words=words)
