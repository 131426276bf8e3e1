"""Exact moments of the trapezoid integral on a uniform grid, numpy only.

With X_s = exp(B_s + (nu - 1/2) s), E[X_s X_u] = exp(nu (s + u) + min(s, u)).
On the grid s_i = i t / n with trapezoid weights w_i (dt/2 at both ends, dt
inside), A = sum_i w_i X_{s_i} is the path core's integral, so these finite
sums are the exact moments of the discrete estimand: a comparison with them
carries no grid bias.
"""

import numpy as np


def grid_moments(t, nu, n):
    """(E[A], E[A^2], E[X_t A]) for the trapezoid integral A over n steps."""
    s = np.arange(n + 1) * (t / n)
    w = np.full(n + 1, t / n)
    w[[0, -1]] *= 0.5
    mean = float(w @ np.exp(nu * s))
    cov = np.exp(nu * (s[:, None] + s[None, :]) + np.minimum(s[:, None], s[None, :]))
    second = float(w @ cov @ w)
    cross = float(w @ np.exp(nu * (t + s) + s))
    return mean, second, cross
