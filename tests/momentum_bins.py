"""Bin-averaged momentum predictions: the test side's quadrature oracle.

The measured momentum curve scores each bin's members against the bin
center, so its expectation is a density-weighted average over the bin, not
the point value of the closed form. Only the tests compare against it.
"""

import numpy as np
from scipy.integrate import quad

from rnemarket.anomalies import AnomalyParams, occupancy_density, true_change_prob
from rnemarket.inference import InputError


def bin_averaged_momentum(edges, sign_change: int, params: AnomalyParams):
    """Expected measured excess per momentum bin under the level density.

    The empirical estimator scores members against the bin center c, so its
    expectation is sign*(density-weighted mean of the true change prob - c).
    Returns (centers, expected rp, bin occupancy mass given the sign).
    """
    edges = np.asarray(edges, float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise InputError("edges must be an increasing 1-d array")
    centers = 0.5 * (edges[:-1] + edges[1:])
    rp = np.empty(len(centers))
    mass = np.empty(len(centers))

    def dens(u):
        return occupancy_density(u, sign_change, params)

    def dens_p(u):
        return dens(u) * true_change_prob(u, sign_change, params.rho, params.K)

    for b in range(len(centers)):
        lo, hi = edges[b], edges[b + 1]
        lo = max(lo, 1e-12)
        hi = min(hi, 1 - 1e-12)
        m, _ = quad(dens, lo, hi, limit=200)
        mp, _ = quad(dens_p, lo, hi, limit=200)
        mass[b] = m
        if m > 0:
            rp[b] = sign_change * (mp / m - centers[b]) * params.S_delta
        else:
            rp[b] = np.nan
    return centers, rp, mass
