"""Whole-matrix references for the bound kernels.

These are the forms of `_f_bipartite_matrix`, `_f_general_matrix` and
`minimize_psi1`'s `over_tau` that build every (rows x points) array at once,
and of `psi1` that evaluates phi at every (theta, tau) point.  The kernels
in `fomlab.charging` must match them bitwise.  The row-blocked ones put each
element through the same float operations, and a row minimum does not
depend on how the rows are grouped or on columns that cannot hold it.  The
bipartite kernel keeps no matrix: rounding is monotone, so the minimum over
theta of ig + min(1 - g(theta), g(y)) equals the minimum of the y-free
min(ig + 1 - g) and min(ig) + g(y), each rounded once.
"""

from __future__ import annotations

import numpy as np

from fomlab.charging import BoundGrid, ChargingFunction
from fomlab.engine import Side


def reference_psi1(
    y_u: float, theta, tau, charging: ChargingFunction, *,
    theta_side: Side = Side.AT, tau_side: Side = Side.AT,
):
    """psi1 as one expression, without its domain checks."""
    theta, tau = np.asarray(theta, dtype=float), np.asarray(tau, dtype=float)
    gy = charging.g(y_u)
    return (
        charging.g_integral(theta)
        + (tau - theta) * charging.h(theta, theta_side)
        + (1.0 - theta) * np.minimum(gy, charging.phi(theta, theta_side))
        + theta * np.minimum(gy, charging.phi(tau, tau_side))
    )


def reference_f_bipartite(
    y: np.ndarray, charging: ChargingFunction, grid: BoundGrid
) -> np.ndarray:
    thetas = grid.axis()
    ig = charging.g_integral(thetas)
    g_theta = charging.g_limit_grid(thetas)
    gy = charging.g_limit_grid(y)
    vals = ig[None, :] + np.minimum(1.0 - g_theta[None, :], gy[:, None])
    vals_at_one = charging.g_integral(1.0) + np.minimum(0.0, gy)
    return np.minimum(vals.min(axis=1), vals_at_one)


def reference_f_general(
    y: np.ndarray, charging: ChargingFunction, grid: BoundGrid
) -> np.ndarray:
    xs = grid.axis()
    n = len(xs)
    g_lim = charging.g_limit_grid(xs)
    h_lim = charging.h_limit_grid(xs)
    phi_lim = 1.0 - g_lim - h_lim
    ig = charging.g_integral(xs)
    phi_one = float(phi_lim[-1])

    qsuf = np.empty(n)
    for i in range(n):
        q = h_lim[i] * xs[i:] + xs[i] * phi_lim[i:]
        qsuf[i] = q.min()

    gy = charging.g_limit_grid(y)
    gy_col = gy[:, None]

    inner_a = (xs * h_lim)[None, :] + xs[None, :] * gy_col
    clamp = ((1.0 - xs) * phi_one)[None, :] + xs[None, :] * np.minimum(
        gy_col, phi_one
    )
    inner = np.minimum(np.minimum(inner_a, qsuf[None, :]), clamp)
    branch1 = (
        ig[None, :]
        + (1.0 - xs)[None, :] * np.minimum(gy_col, phi_lim[None, :])
        + inner
        - (xs * h_lim)[None, :]
    )

    comp2 = np.minimum(phi_one, h_lim)
    branch2 = (
        ig[None, :]
        + ((1.0 - xs) * comp2)[None, :]
        + (1.0 - xs)[None, :] * np.minimum(gy_col, 1.0 - g_lim[None, :])
    )

    return np.minimum(branch1, branch2).min(axis=1)


def reference_over_tau(
    y_u: float, thetas: np.ndarray, charging: ChargingFunction,
    coarse_step: float = 1e-3,
) -> np.ndarray:
    """psi1 minimised over the coarse tau grid cut to tau >= theta, per theta."""
    taus = np.clip(np.arange(0.0, 1.0 + coarse_step / 2, coarse_step), 0.0, 1.0)
    th, side = thetas[:, None], Side.JUST_BELOW
    tau = np.maximum(taus, th)
    return reference_psi1(
        y_u, th, tau, charging, theta_side=side, tau_side=side
    ).min(axis=1)
