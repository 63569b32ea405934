"""Expectation values of number, momentum, and energy observables on states.

All observables here are diagonal on the occupation basis.  Functions are
pure and safe for concurrent use.
"""

import warnings

import numpy as np

from cerenkov_fiber.fock import FockBasis

NORM_SLACK = 1e-10


def _normalized(state: np.ndarray, what: str) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    norm = np.linalg.norm(state)
    if norm == 0.0:
        raise ValueError(f"{what}: zero state")
    if abs(norm - 1.0) > NORM_SLACK:
        warnings.warn(
            f"{what}: state norm {norm:.6g} != 1, normalizing internally",
            stacklevel=3,
        )
        return state / norm
    return state


def expect_number(state, weight, basis: FockBasis) -> float:
    """<dGamma(w)> for a per-mode weight array."""
    psi = _normalized(state, "expect_number")
    diag = basis.dgamma_diagonal(np.asarray(weight, dtype=float))
    return float(np.sum(psi * psi * diag))


def expect_field_momentum(state, basis: FockBasis) -> np.ndarray:
    psi = _normalized(state, "expect_field_momentum")
    return (psi * psi) @ basis.total_momentum
