"""Canonical pricing of a binary change-risk under a conserved risk loading.

The pricing belief Pi is tied to the inference belief pi through a constant
odds discount K: O(pi)/O(Pi) = K^sign at every instant, where sign says
whether the change would raise (+1) or lower (-1) the asset's value. Prices
are carried in log-value units and decompose as

    S_t = y_minus_t + S_delta * Pi_up_t - premium_to_go_t,

with y_minus the sure value of the lower branch and Pi_up the pricing
probability of the upper branch. Stepping is exact: beliefs jump with the
simulated log-LR and the price is rebuilt canonically, so the conserved
ratio and the price identity hold to machine precision at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inference import (
    MAX_ACCUMULATED,
    InferenceParams,
    InputError,
    expit,
    logit,
    loglr_paths,
    posterior_from_loglr,
    write_csv,
)

__all__ = [
    "PricingParams",
    "PricePath",
    "PremiumDecomposition",
    "rne_belief",
    "price_of_model_risk",
    "implied_gain_to_loss",
    "canonical_price",
    "premium_decomposition",
    "price_paths",
    "simulate_price_path",
    "diffusion_price_of_risk",
    "verify_canonical_ode",
    "write_price_paths_csv",
]


@dataclass(frozen=True)
class PricingParams:
    """The pricing constants of one asset class; a path's prior and sign are its own arguments.

    K: odds discount applied to the adverse branch; K=1 prices the change
        risk as diversifiable.
    S_delta: log-value gap between the two sure valuations, constant unless
        rZ_delta decays it.
    bsure_premium_drift: premium earned per unit time while the risk is
        unresolved (paid back through the premium-to-go term).
    rZ_delta: decay rate of S_delta; couples to the Z-stream drift.
    sigma_Z: volatility of the sure-value anchor.
    """

    K: float = 1.5
    S_delta: float = 1.0
    bsure_premium_drift: float = 0.0
    rZ_delta: float = 0.0
    sigma_Z: float = 0.0
    y_minus0: float = 0.0
    t_max: float = 10.0

    def __post_init__(self) -> None:
        if self.K < 1:
            raise InputError("K must be >= 1", "K")
        if self.S_delta <= 0:
            raise InputError("S_delta must be positive", "S_delta")
        if self.S_delta * self.S_delta == math.inf:
            raise InputError("S_delta must be below 1.34e154, where S_delta**2 overflows", "S_delta")
        negative = [
            f for f in ("bsure_premium_drift", "rZ_delta", "sigma_Z") if getattr(self, f) < 0
        ]
        if negative:
            raise InputError("premium drift, rZ_delta and sigma_Z must be nonnegative", *negative)
        # the premium-to-go and the anchor's noise are terms of every price
        if not self.bsure_premium_drift * self.t_max <= MAX_ACCUMULATED:
            raise InputError(f"the premium-to-go bsure_premium_drift * t_max must be at most "
                             f"{MAX_ACCUMULATED:g}", "bsure_premium_drift", "t_max")
        if not self.sigma_Z * self.sigma_Z * self.t_max <= MAX_ACCUMULATED:
            raise InputError(f"the anchor variance sigma_Z**2 * t_max must be at most "
                             f"{MAX_ACCUMULATED:g}", "sigma_Z", "t_max")
        if self.rZ_delta * self.t_max >= self.S_delta:
            raise InputError(
                "rZ_delta would exhaust S_delta before t_max", "rZ_delta", "t_max", "S_delta"
            )

    def check_consistent(self, inf: InferenceParams) -> None:
        """The Z-stream's signal-to-noise is pinned once both legs are live."""
        if self.rZ_delta > 0 and self.sigma_Z > 0:
            implied = self.rZ_delta / self.sigma_Z
            if abs(implied - inf.sigma_lZ) > 1e-12:
                raise InputError(
                    f"sigma_lZ={inf.sigma_lZ} inconsistent with rZ_delta/sigma_Z={implied}"
                )

    def s_delta_at(self, t: float) -> float:
        return self.S_delta - self.rZ_delta * t

    def premium_to_go(self, t: float) -> float:
        return self.bsure_premium_drift * (self.t_max - t)

    def draws_z(self, var_z) -> bool:
        """Whether a priced path draws Z-stream normals: the anchor or the log-LR needs them."""
        return self.sigma_Z > 0 or bool(np.any(var_z > 0))


@dataclass(frozen=True)
class PremiumDecomposition:
    total_rp: float
    bsure_part: float
    model_part: float
    price_of_model_risk: float
    expost_gap: float | None = None


def rne_belief(pi, K: float, sign_change: int):
    """Pricing belief with odds discounted by K^sign relative to pi.

    Monotone in pi; the log-odds gap is exactly -sign*log(K), which is what
    makes the odds ratio a conserved quantity along any data path.
    """
    if K < 1:
        raise InputError("K must be >= 1")
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1")
    return expit(logit(pi) - sign_change * math.log(K))


def price_of_model_risk(Pi, K: float):
    """Premium per unit of intrinsic risk dispersion: (sqrt(K)-1/sqrt(K))*sigma_Pi."""
    root = math.sqrt(K)
    return (root - 1.0 / root) * np.sqrt(Pi * (1.0 - Pi))


def implied_gain_to_loss(pi, Pi_upper):
    """Expected gain over expected loss of a unit position in the change leg.

    Buying the upper branch at probability-price Pi_upper gains (1 - Pi_upper)
    on a hit and loses Pi_upper on a miss; weighting by the holder's belief pi
    gives the odds ratio O(pi)/O(Pi_upper). In canonical pricing this is the
    constant K whatever the belief level.
    """
    pi = np.asarray(pi, float)
    Pi_upper = np.asarray(Pi_upper, float)
    if np.any((pi <= 0) | (pi >= 1)) or np.any((Pi_upper <= 0) | (Pi_upper >= 1)):
        raise InputError("beliefs must lie in (0,1)")
    out = (pi / (1 - pi)) * ((1 - Pi_upper) / Pi_upper)
    return float(out) if out.ndim == 0 else out


def canonical_price(y_minus: float, S_delta: float, Pi: float, bsure_premium_to_go: float = 0.0) -> float:
    """Log-price as lower sure value plus priced upside minus premium-to-go.

    Pi here is the pricing probability of the upper branch; callers with a
    value-lowering change pass 1 - Pi(change).
    """
    return y_minus + S_delta * Pi - bsure_premium_to_go


def premium_decomposition(
    pi: float,
    A_plus: float,
    S_delta: float,
    bsure_rps: tuple[float, float] = (0.0, 0.0),
    true_p: float | None = None,
) -> PremiumDecomposition:
    """Split the total risk premium into sure-branch and model-risk parts.

    The model part is the belief gap (pi - A_plus) scaled by the impact, and
    k normalizes it by the intrinsic dispersion sqrt(pi(1-pi)). With the true
    change probability supplied, the ex-post drift gap adds the bias leg
    (true_p - pi)*S_delta on top of the priced leg.
    """
    if not (0 < pi < 1 and 0 < A_plus < 1):
        raise InputError("beliefs must lie in (0,1)")
    rp_plus, rp_minus = bsure_rps
    bsure = pi * rp_plus + (1 - pi) * rp_minus
    model = (pi - A_plus) * S_delta
    k = (pi - A_plus) / math.sqrt(pi * (1 - pi))
    gap = None
    if true_p is not None:
        gap = model + (true_p - pi) * S_delta
    return PremiumDecomposition(
        total_rp=bsure + model,
        bsure_part=bsure,
        model_part=model,
        price_of_model_risk=k,
        expost_gap=gap,
    )


def price_paths(params: PricingParams, pi0: float, times, cols, loglr, b, plus, z):
    """(loglr, pi, Pi, S) at times[cols] along rows of exact log-LR paths.

    pi0 is every row's inference prior of the change. loglr holds one path
    per row on the grid `times` (see loglr_paths, whose normals z the anchor
    shares); b and plus flag each row's outcome and whether its change
    raises value. The anchor y_minus moves by sigma_Z times the Z noise,
    plus rZ_delta while the up branch is realized. Pi is the priced
    probability of the change.
    """
    loglr = loglr[:, cols]
    pi = posterior_from_loglr(pi0 / (1 - pi0), loglr)
    Pi = np.empty_like(pi)
    Pi[plus] = rne_belief(pi[plus], params.K, 1)
    Pi[~plus] = rne_belief(pi[~plus], params.K, -1)
    t = times[cols]
    y = params.y_minus0
    if params.sigma_Z > 0 or params.rZ_delta > 0:
        dts = np.diff(times)
        if params.sigma_Z > 0:
            dy = params.sigma_Z * np.sqrt(dts) * z[:, len(dts) :]
        else:
            dy = np.zeros((len(b), len(dts)))
        if params.rZ_delta > 0:
            dy[b == plus] += params.rZ_delta * dts
        y_path = np.zeros((len(b), len(times)))
        np.cumsum(dy, axis=1, out=y_path[:, 1:])
        y = y + y_path[:, cols]
    up_prob = np.where(plus[:, None], Pi, 1.0 - Pi)
    S = canonical_price(y, params.s_delta_at(t), up_prob, params.premium_to_go(t))
    return loglr, pi, Pi, S


@dataclass
class PricePath:
    t: np.ndarray
    loglr: np.ndarray
    pi: np.ndarray
    Pi: np.ndarray
    S: np.ndarray
    k_pi: np.ndarray
    b: int
    sign_change: int


def simulate_price_path(
    inf: InferenceParams,
    params: PricingParams,
    b: int,
    seed,
    record_times=None,
    sign_change: int = 1,
    pi0: float = 0.5,
) -> PricePath:
    """Simulate one priced path on a dense dt-grid (or given record times).

    sign_change is +1 when the change raises log-value, -1 when it lowers
    it; pi0 is the inference prior of the change. The draws are the D-stream
    normals of every interval, then the Z-stream normals if params.draws_z.
    On the panel's record times, fed a panel asset's substream after its two
    uniforms, with its sign and the truth's pi1_0, the path reproduces that
    asset's panel row. The grid holds the schedule breakpoints too (see
    InferenceParams.path_grid); the path reports the dense or record times.
    """
    if sign_change not in (1, -1):
        raise InputError("sign_change must be +1 or -1", "sign_change")
    if not 0 < pi0 < 1:
        raise InputError("pi0 must lie in (0,1)", "pi0")
    params.check_consistent(inf)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    times, cols = inf.path_grid(record_times, t_max=min(inf.t_max, params.t_max))
    var_z, var_d = inf.interval_variances(times)
    z = rng.standard_normal((1, (2 if params.draws_z(var_z) else 1) * len(var_d)))
    b_row, plus = np.array([b == 1]), np.array([sign_change == 1])
    rows = price_paths(params, pi0, times, cols, loglr_paths(var_z, var_d, b_row, z),
                       b_row, plus, z)
    loglr, pi, Pi, S = (r[0] for r in rows)
    return PricePath(times[cols], loglr, pi, Pi, S, price_of_model_risk(Pi, params.K), b,
                     sign_change)


def diffusion_price_of_risk(Pi: float, pi: float, sigma_l: float, K: float, S_delta: float) -> dict:
    """Instantaneous drift/volatility structure of the priced belief term.

    Returns the diffusion coefficient, the ensemble drift relative to the
    inference belief, their ratio (the diffusion price of model risk), and
    the leading-order linear-in-volatility approximation of the drift ratio.
    """
    if not (0 < Pi < 1 and 0 < pi < 1):
        raise InputError("beliefs must lie in (0,1)")
    sigma_Pi = math.sqrt(Pi * (1 - Pi))
    sigma_pi = math.sqrt(pi * (1 - pi))
    k_pi = float(price_of_model_risk(Pi, K))
    sigma = sigma_Pi**2 * sigma_l * S_delta
    return {
        "sigma": sigma,
        "mu": (sigma_Pi * sigma_l) ** 2 * k_pi * sigma_pi * S_delta,
        "mu_over_sigma": k_pi * sigma_pi * sigma_l,
        "capm_approx": (K - 1) / S_delta * sigma,
    }


def verify_canonical_ode(grid, candidate, h: float = 1e-4) -> float:
    """Max residual of the pricing-map ODE A''/(2A') = (pi - A)/(pi(1-pi)).

    The canonical belief map solves this identically; any Mobius-distinct
    candidate leaves an O(1) residual somewhere on the grid. Central
    differences with step h; the grid must stay h away from {0, 1}.
    """
    g = np.asarray(grid, float)
    if np.any(g - h <= 0) or np.any(g + h >= 1):
        raise InputError("grid must keep h-distance from {0,1}")
    a0 = np.asarray(candidate(g), float)
    ap = np.asarray(candidate(g + h), float)
    am = np.asarray(candidate(g - h), float)
    d1 = (ap - am) / (2 * h)
    d2 = (ap - 2 * a0 + am) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        lhs = d2 / (2 * d1)
    rhs = (g - a0) / (g * (1 - g))
    resid = np.abs(lhs - rhs)
    resid = np.where(np.isfinite(resid), resid, np.inf)
    return float(np.max(resid))


def write_price_paths_csv(path, runs) -> None:
    """Dump priced runs as rows (path_id, t, pi, Pi, S, k_pi, B, sign); runs may be a
    generator of PricePath, so that each path is written and dropped before the next."""
    i = 0  # not enumerate: its result tuple would hold a path while the next is built
    for run in runs:
        write_csv(
            path,
            ["path_id", "t", "pi", "Pi", "S", "k_pi", "B", "sign"],
            [i, run.t, run.pi, run.Pi, run.S, run.k_pi, run.b, run.sign_change],
            append=i > 0,
        )
        i += 1
        del run
