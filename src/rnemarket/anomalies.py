"""Closed-form cohort curves and mixture ratios for the ideal market.

Conditioning events are belief levels {Pi_t = v} of the priced change
probability. Everything here is analytic: occupancy densities come from the
Normal law of the log-LR through the logistic change of variable, momentum
and low-risk curves from the conserved-K belief maps, and the sign-mix
ratios from Gaussian density ratios at shifted event levels. The market
simulator measures the same objects empirically; tests confront the two.

Conventions: v is a probability level; the "fold" pairs v with 1-v for
volatility conditioning since sqrt(v(1-v)) cannot tell them apart. rho is
the status-quo bias (true odds over reference-prior odds), K the risk
loading, S_delta the log-value impact of the change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import InputError, Milestones, expit, logit, loglr_law

__all__ = [
    "AnomalyParams",
    "CohortCurve",
    "true_change_prob",
    "momentum_excess",
    "momentum_peak",
    "momentum_pair_profit",
    "event_lr_from_ratio",
    "event_likelihood_ratio",
    "momentum_mix",
    "vol_mix",
    "occupancy_density",
    "vol_conditioned_excess",
    "lowrisk_peak",
    "default_grid",
    "analytic_curve",
    "peak_report",
]


@dataclass(frozen=True)
class AnomalyParams:
    """Parameter bundle for analytic curves at one evaluation epoch t.

    H_p is the objective hurdle log((1-p1_0)/p1_0). Whether t lies in the
    anomaly window is inference.window_check's question, not this bundle's.
    """

    rho: float
    K: float
    S_delta: float
    H_p: float
    sigma_l: float
    t: float

    def __post_init__(self) -> None:
        if self.rho <= 0:
            raise InputError("rho must be positive", "rho")
        if self.K < 1:
            raise InputError("K must be >= 1", "K")
        if self.S_delta <= 0:
            raise InputError("S_delta must be positive", "S_delta")
        if self.sigma_l <= 0:
            raise InputError("sigma_l must be positive", "sigma_l")
        if self.t <= 0:
            raise InputError("t must be positive", "t")
        # the momentum curves and peaks read rho * K**sign and its reciprocal
        if not (1e-300 <= self.rho / self.K and self.rho * self.K <= 1e300):
            raise InputError("rho * K and rho / K must lie in [1e-300, 1e300]", "rho", "K")
        # the densities read l_t's law at levels H_p + log rho +- log K + logit(v),
        # |logit(v)| < 745 for every float v in (0, 1): each squared z-score
        # stays below 1e308, so no two log weights are both -inf (their
        # difference NaN), when the law's scale is at least span / 1e154
        span = abs(self.H_p) + abs(math.log(self.rho)) + math.log(self.K) + 745.0
        if not span + self.sigma_l * self.sigma_l * self.t / 2 <= (
            1e154 * self.sigma_l * math.sqrt(self.t)
        ):
            raise InputError(
                "sigma_l*sqrt(t) is so small, or so large, that the log-LR law's log-densities "
                "overflow",
                "sigma_l",
            )

    @classmethod
    def from_primitives(
        cls,
        p1_0: float,
        rho: float,
        K: float,
        sigma_l: float,
        t: float,
        S_delta: float = 1.0,
    ) -> "AnomalyParams":
        if not 0 < p1_0 < 1:
            raise InputError("p1_0 must lie in (0,1)", "p1_0")
        return cls(rho=rho, K=K, S_delta=S_delta, H_p=float(-logit(p1_0)),
                   sigma_l=sigma_l, t=t)

    @property
    def p1_0(self) -> float:
        return float(expit(-self.H_p))


# each curve kind's sign: a momentum curve's branch, and its peak's orientation
_KIND_SIGN = {"momentum_plus": 1, "momentum_minus": -1, "volatility": 1}


@dataclass
class CohortCurve:
    """One cohort curve: levels v, mean excess rp, and occupancy.

    n carries counts for empirical curves and analytic weights otherwise;
    se and mix are empirical-only. Levels must increase; volatility curves
    live on (0, 1/2].
    """

    kind: str
    v: np.ndarray
    rp: np.ndarray
    n: np.ndarray
    se: np.ndarray | None = None
    mix: np.ndarray | None = None

    VALID_KINDS = tuple(_KIND_SIGN)

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise InputError(f"unknown curve kind {self.kind!r}")
        self.v = np.asarray(self.v, float)
        self.rp = np.asarray(self.rp, float)
        self.n = np.asarray(self.n, float)
        if np.any(np.diff(self.v) <= 0):
            raise InputError("curve levels must be strictly increasing")
        if self.kind == "volatility" and np.any(self.v > 0.5 + 1e-12):
            raise InputError("volatility curves are defined on (0, 1/2]")


def true_change_prob(v, sign_change: int, rho: float, K: float):
    """Objective change probability on the event {Pi_t = v} with given sign.

    The event pins the log-LR, and the true posterior differs from the
    priced belief only through the prior odds gap rho*K^sign.
    """
    return expit(logit(v) + math.log(rho) + sign_change * math.log(K))


def momentum_excess(v, sign_change: int, rho: float, K: float, S_delta: float):
    """Mean excess earned on {Pi_t = v} cohorts of one sign.

    Equals sign*(true_change_prob - v)*S_delta, written in the discounted
    form with a = 1/(rho*K^sign); vanishes at rho=K=1 and under the
    label switch (v, sign, rho) -> (1-v, -sign, 1/rho).
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1")
    v = np.asarray(v, float)
    a = 1.0 / (rho * K**sign_change)
    return sign_change * v * (1 - v) * (1 - a) / (v + (1 - v) * a) * S_delta


def momentum_peak(rho: float, K: float, S_delta: float, sign_change: int) -> tuple[float, float]:
    """Location and size of the best momentum excess for one sign branch."""
    if rho <= 0:
        raise InputError("rho must be positive")
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1")
    root = math.sqrt(rho * K**sign_change)
    v_max = 1.0 / (root + 1.0)
    rp_max = sign_change * (root - 1.0) / (root + 1.0) * S_delta
    return v_max, rp_max


def momentum_pair_profit(rho: float, K: float, S_delta: float) -> float:
    """Peak profitability of the long-plus/short-minus momentum pair."""
    _, rp_plus = momentum_peak(rho, K, S_delta, 1)
    _, rp_minus = momentum_peak(rho, K, S_delta, -1)
    return 0.5 * (rp_plus - rp_minus)


def _check_outcome(B: int) -> None:
    if B not in (0, 1):
        raise InputError("B must be 0 or 1")


def event_lr_from_ratio(v, tPi_over_t: float, B: int):
    """event_likelihood_ratio, given its pricing hurdle time over t."""
    v = np.asarray(v, float)
    return ((1 - v) / v) ** (-tPi_over_t - (-1) ** B)


def event_likelihood_ratio(v, t: float, m: Milestones, sign_change: int, B: int):
    """Density ratio of the mirrored event {Pi_t = 1-v} to {Pi_t = v}.

    Conditional on the sign of the potential change and the outcome B. Far
    below 1 in the bias-dominant regime: mirrored events barely occur.
    """
    _check_outcome(B)
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1")
    tPi = m.t_Pi_plus if sign_change == 1 else m.t_Pi_minus
    return event_lr_from_ratio(v, tPi / t, B)


def momentum_mix(v, t: float, m: Milestones, rho: float, K: float, B: int):
    """Sign mix P(+|v)/P(-|v) on the cohort {Pi_t = v}, given outcome B.

    With a symmetric unconditional sign mix this is the density ratio of
    the event under the two signs; it departs from 1 only through K.
    """
    _check_outcome(B)
    v = np.asarray(v, float)
    return (rho * v / (1 - v)) ** (-m.t_K / t) * K ** (-m.t_p / t - (-1) ** B)


def vol_mix(v, t: float, m: Milestones, rho: float, K: float, B: int):
    """Sign mix of the folded volatility cohort {Pi_t = v} U {Pi_t = 1-v}."""
    _check_outcome(B)
    v = np.asarray(v, float)
    if np.any(v > 0.5 + 1e-12):
        raise InputError("volatility levels live on (0, 1/2]")
    M = momentum_mix(v, t, m, rho, K, B)
    R_plus = event_likelihood_ratio(v, t, m, 1, B)
    R_minus = event_likelihood_ratio(v, t, m, -1, B)
    return M * (1 + R_plus) / (1 + R_minus)


def _norm_logpdf(x, loc: float, scale: float):
    """Normal log density, in scipy.stats.norm.logpdf's operation order."""
    z = (x - loc) / scale
    return -z**2 / 2.0 - 0.5 * math.log(2 * math.pi) - math.log(scale)


def _log_occupancy(v, sign_change: int, params: AnomalyParams, logit_v=None):
    """log density of Pi_t at v for one sign, mixing B's loglr_law with true weights.

    logit_v is logit(v), for a caller that reads both signs at one level
    array; it is computed here when not given.
    """
    v = np.asarray(v, float)
    # the log-LR level at which a sign_change asset prices the change at v
    level = (params.H_p + math.log(params.rho) + sign_change * math.log(params.K)
             + (logit(v) if logit_v is None else logit_v))
    w1 = params.p1_0
    la = np.log(w1) + _norm_logpdf(level, *loglr_law(params.t, 1, params.sigma_l))
    lb = np.log1p(-w1) + _norm_logpdf(level, *loglr_law(params.t, 0, params.sigma_l))
    return np.logaddexp(la, lb) - np.log(v * (1 - v))


def occupancy_density(v, sign_change: int, params: AnomalyParams):
    """Density of the priced belief level at epoch t for one sign branch."""
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1")
    return np.exp(_log_occupancy(v, sign_change, params))


def _balanced_arm(logit_u, params: AnomalyParams):
    """Half-sum of the two sign branches' excess at one level u, given logit(u).

    The level terms cancel between the branches, leaving a pure gap of true
    change probabilities (true_change_prob of each sign); this is the piece
    whose maximum sits at v = 1/(rho+1) with size (K-1)/(2(K+1))*S_delta.
    """
    shifted = logit_u + math.log(params.rho)
    up = expit(shifted + math.log(params.K))
    down = expit(shifted - math.log(params.K))
    return 0.5 * (up - down) * params.S_delta


def _log_folded_weights(v, params: AnomalyParams) -> tuple:
    """(lw_lo, lw_hi, logit_lo, logit_hi): the folded log weights at the levels
    v and 1 - v, and the logits of those levels, one logit per level array."""
    weights, logits = [], []
    for u in (v, 1 - v):
        lu = logit(np.asarray(u))  # an array, so that a 0-d input takes numpy's path too
        lp = _log_occupancy(u, 1, params, lu)
        lm = _log_occupancy(u, -1, params, lu)
        weights.append(np.logaddexp(lp, lm) - math.log(2.0))
        logits.append(lu)
    return (*weights, *logits)


def vol_conditioned_excess(v, params: AnomalyParams):
    """Mean excess of the folded volatility cohort at level v in (0, 1/2].

    Averages the per-sign excesses over the cohort members: a half/half
    sign mix on each side of the fold (the unconditional mix), with the two
    sides weighted by their occupancy. The mirrored side's weight is
    exponentially small in the bias-dominant regime, so the curve is the
    balanced arm up to tiny corrections and peaks near 1/(rho+1).
    """
    return _vol_curve(v, params)[0]


def _vol_curve(v, params: AnomalyParams) -> tuple:
    """vol_conditioned_excess at v, and the folded log weights at the levels
    it read (v clipped to 1/2, and 1 - v). At K = 1 both arms are +0.0, and
    so is the curve: AnomalyParams' span check keeps w_lo a number."""
    v = np.asarray(v, float)
    if np.any((v <= 0) | (v > 0.5 + 1e-12)):
        raise InputError("volatility levels live on (0, 1/2]")
    v = np.minimum(v, 0.5)
    lw_lo, lw_hi, logit_lo, logit_hi = _log_folded_weights(v, params)
    w_lo = expit(lw_lo - lw_hi)
    rp = w_lo * _balanced_arm(logit_lo, params) + (1 - w_lo) * _balanced_arm(logit_hi, params)
    return rp, (lw_lo, lw_hi)


def lowrisk_peak(rho: float, K: float, S_delta: float) -> tuple[float, float]:
    """Peak location and size of the volatility-conditioned excess curve.

    Exact at rho=1; for rho >> 1 the leading-order error of the location is
    O((K-1)*H_p/(sigma_l^2 t)). Inputs with rho < 1 are label-switched to
    their mirrored equivalent first.
    """
    if rho <= 0:
        raise InputError("rho must be positive")
    if K < 1:
        raise InputError("K must be >= 1")
    if rho < 1:
        rho = 1.0 / rho
    v_max = 1.0 / (rho + 1.0)
    rp_max = 0.5 * (K - 1.0) / (K + 1.0) * S_delta
    return v_max, rp_max


def default_grid(kind: str, step: float = 1e-3) -> np.ndarray:
    """np.arange's levels step, 2 step, ... in the curve's domain: up to 1/2 (plus
    analytic_curve's 1e-12) for volatility, below 1 for momentum."""
    if kind == "volatility":
        grid = np.arange(step, 0.5 + step / 2, step)
        return grid[: np.searchsorted(grid, 0.5 + 1e-12, side="right")]
    grid = np.arange(step, 1.0, step)
    return grid[: np.searchsorted(grid, 1.0)]


def analytic_curve(kind: str, params: AnomalyParams, grid=None) -> CohortCurve:
    """Evaluate one analytic cohort curve on a level grid.

    The n column carries occupancy weights: the per-sign level density for
    momentum curves, the folded unconditional density for volatility.
    """
    if kind not in _KIND_SIGN:
        raise InputError(f"unknown curve kind {kind!r}")
    if grid is None:
        grid = default_grid(kind)
    grid = np.asarray(grid, float)
    if kind == "volatility":
        rp, lw = _vol_curve(grid, params)
        if np.any(grid > 0.5):  # the weights are read at the grid as given
            lw = _log_folded_weights(grid, params)
        w = np.exp(lw[0]) + np.exp(lw[1])
    else:
        rp = momentum_excess(grid, _KIND_SIGN[kind], params.rho, params.K, params.S_delta)
        w = occupancy_density(grid, _KIND_SIGN[kind], params)
    return CohortCurve(kind=kind, v=grid, rp=rp, n=w)


def peak_report(kind: str, params: AnomalyParams, step: float = 1e-3) -> dict:
    """Grid argmax of a curve, refined to step/10 near the peak, against the closed form.

    Oriented curves (the minus branch peaks downward) are searched on
    sign-adjusted values. Returns the refined location/value plus the
    formula value and their absolute gap, and under "curve" the analytic
    curve on the coarse grid default_grid(kind, step) that was searched.
    """
    curve = analytic_curve(kind, params, grid=default_grid(kind, step))
    grid = curve.v
    orient = _KIND_SIGN[kind]
    vals = orient * curve.rp
    i = int(np.argmax(vals))
    lo = max(grid[0], grid[i] - 2 * step)
    hi = min(grid[-1], grid[i] + 2 * step)
    fine = np.arange(lo, hi + step / 20, step / 10)
    fvals = orient * analytic_curve(kind, params, fine).rp
    j = int(np.argmax(fvals))
    v_grid, rp_grid = float(fine[j]), float(orient * fvals[j])
    if kind == "volatility":
        v_formula, rp_formula = lowrisk_peak(params.rho, params.K, params.S_delta)
    else:
        v_formula, rp_formula = momentum_peak(params.rho, params.K, params.S_delta, orient)
    return {
        "kind": kind,
        "v_max": v_grid,
        "rp_max": rp_grid,
        "formula_value": rp_formula,
        "abs_gap": abs(rp_formula - rp_grid),
        "v_formula": v_formula,
        "v_abs_gap": abs(v_formula - v_grid),
        "curve": curve,
    }
