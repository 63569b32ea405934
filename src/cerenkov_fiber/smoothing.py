"""Polynomial ramp and bump profiles shared by form factors and cutoff weights.

All ramps are built from the quintic smootherstep, which is C^2 and has an
explicit derivative bound max|S'| = 15/8, so every weight function assembled
from it has closed-form derivatives.
"""

import numpy as np

# Peak slope of the quintic ramp, attained at t = 1/2.
SMOOTHERSTEP_MAX_SLOPE = 15.0 / 8.0


def smootherstep(t):
    """Quintic ramp: 0 for t <= 0, 1 for t >= 1, C^2 monotone in between."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smootherstep_derivative(t):
    """Analytic derivative of :func:`smootherstep`; zero outside (0, 1)."""
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    ts = np.where(inside, t, 0.5)
    d = 30.0 * ts * ts * (ts - 1.0) * (ts - 1.0)
    return np.where(inside, d, 0.0)


def bump(z):
    """C^2 bump profile (1 - z^2)^3 on [-1, 1], zero outside, peak 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    core = np.maximum(1.0 - z * z, 0.0)
    return core * core * core


def plateau_ramp(edges, r):
    """Plateau weight and its r-derivative for edges (a0, a1, b1, b0).

    The weight is 1 on [a1, b1] and 0 outside [a0, b0], with a quintic ramp
    on each side.
    """
    a0, a1, b1, b0 = edges
    r = np.asarray(r, dtype=float)
    t_up = (r - a0) / (a1 - a0)
    t_down = (b0 - r) / (b0 - b1)
    up = smootherstep(t_up)
    down = smootherstep(t_down)
    dup = smootherstep_derivative(t_up) / (a1 - a0)
    ddown = smootherstep_derivative(t_down) * (-1.0 / (b0 - b1))
    return up * down, dup * down + up * ddown
