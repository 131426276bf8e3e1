"""Pr[A_n <= a] on the n-step trapezoid grid by a backward chain, numpy and math only.

With X = exp(B + (nu - 1/2) s) on the grid of step dt = t / n and A_k the
trapezoid integral to step k, Y_k = (a - A_k) / X_k starts at Y_0 = a and
moves by

    Y_{k+1} = (Y_k - dt/2) / rho - dt/2,   rho = exp(sqrt(dt) z + (nu - 1/2) dt),

with z standard normal and independent of the past.  A is increasing, so
{A_n <= a} = {Y_n >= 0}, and a Y below 0 stays below.  Hence
Pr[A_n <= a] = u_n(a), where

    u_1(y) = Phi((log((2y - dt)/dt) - (nu - 1/2) dt) / sqrt(dt)) for y > dt/2, 0 below,
    u_k(y) = E[u_{k-1}((y - dt/2)/rho - dt/2)].

This is the discrete law the path core samples, with no Monte Carlo in it.
u_k is held on m points uniform in s = log(y - dt/2), linearly interpolated,
0 below the grid (u_k <= u_1, which underflows to 0 there on fine grids)
and 1 above it; the expectation over z is probabilists' Gauss-Hermite quadrature.
"""

import math

import numpy as np


def grid_chain_cdf(a_values, t, nu, n_steps, m=16_000, nodes=32):
    """Pr[A_n <= a] at each a on the n_steps-step trapezoid grid over [0, t]."""
    dt = t / n_steps
    sd, drift = math.sqrt(dt), (nu - 0.5) * dt
    # s spans y - dt/2 from dt e^-8, where u_1 underflows to 0 for
    # dt <= 1/64, to 1e3, beyond which Pr[A_n > y] < 1e-9 for t <= 1 and
    # nu <= 1
    s = np.linspace(math.log(dt) - 8.0, math.log(1e3), m)
    h = s[1] - s[0]
    # u_1 at y = dt/2 + e^s: log((2y - dt)/dt) = s + log(2/dt)
    u = np.array([0.5 * math.erfc(-((x + math.log(2 / dt)) - drift) / (sd * math.sqrt(2)))
                  for x in s])
    z, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    log_rho = sd * z + drift
    # one step maps y = dt/2 + e^s to dt/2 + e^s', e^s' = e^s / rho - dt
    moved = np.exp(s[:, None] - log_rho[None, :]) - dt
    # s' as a fractional index into the grid; points that leave the chain
    # (e^s' <= 0) or fall below the grid read 0, points above it 1
    pos = (np.log(np.maximum(moved, 1e-300)) - s[0]) / h
    below, above = pos < 0, pos >= m - 1
    lo = np.clip(np.floor(pos), 0, m - 2).astype(np.intp)
    frac = pos - lo
    for _ in range(n_steps - 1):
        vals = u[lo] * (1 - frac) + u[lo + 1] * frac
        vals[below] = 0.0
        vals[above] = 1.0
        u = vals @ w
    a = np.asarray(a_values, dtype=float)
    return np.interp(np.log(a - dt / 2), s, u, left=0.0, right=1.0)
