"""Bayesian inference engine for a binary change-risk.

A latent outcome b in {1, 0} (change / status quo) drives a data stream whose
log likelihood-ratio l_t is a Gaussian process: over any interval the
increment has drift +/- sigma_l^2/2 (sign set by b) and variance sigma_l^2 dt.
Beliefs follow by multiplying prior odds with exp(l_t).

Everything here simulates l_t with exact Gaussian increments and derives the
belief pointwise; no Euler stepping of the belief SDE is ever used, so the
odds identity O(pi_t) = O(pi_0) * exp(l_t) holds to machine precision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Log-odds are clipped here before exponentiation; beliefs saturate smoothly
# to the interval endpoints instead of overflowing.
LOGLR_SATURATION = 700.0

# Rows formatted per file write in write_csv: the formatted text held in
# memory stays near 100 kB whatever the row count.
CSV_BLOCK = 1024


class InputError(ValueError):
    """Raised for invalid operation inputs (non-finite, out of range).

    fields names the parameters at fault, where known: fields of the object
    that raised, or dotted paths to fields of its parts ("inference.t_max"
    on a MarketConfig), so that a caller that read them from a config can
    name their lines.
    """

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def write_csv(path, header, columns, append=False) -> None:
    """Write columns as CSV rows: the one format of every artifact.

    Each column is a 1-d array or sequence (through np.asarray, so pass
    integers beyond int64 as a uint64 or object array), or a scalar repeated
    on every row. A float column prints as f"{x:.17g}", which parses back to
    the same double; any other value prints as str. No field is quoted, so
    values must not contain commas, quotes or line breaks. With append=True
    the rows are added to the file without the header.
    """
    cols = [np.asarray(c) for c in columns]
    lengths = {len(c) for c in cols if c.ndim}
    if len(lengths) != 1:
        raise InputError("write_csv needs array columns of one length")
    (n,) = lengths
    row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in cols) + "\n"
    with open(path, "a" if append else "w", newline="") as fh:
        if not append:
            fh.write(",".join(header) + "\n")
        for lo in range(0, n, CSV_BLOCK):
            block = [
                c[lo : lo + CSV_BLOCK].tolist() if c.ndim else itertools.repeat(c.item())
                for c in cols
            ]
            fh.write("".join(map(row.format, *block)))


@dataclass(frozen=True)
class InferenceParams:
    """Signal-to-noise configuration of the data streams.

    sigma_lZ: signal-to-noise carried by the price-relevant stream (per
        sqrt time).
    sigma_lD: signal-to-noise of the purely outcome-informative stream.
    dt: simulation step for dense grids.
    t_max: horizon; simulations never run past it.
    schedule: optional piecewise-constant overrides, a tuple of
        (t_start, sigma_lZ, sigma_lD) with strictly increasing t_start.
        Before the first entry the base values apply.
    """

    sigma_lZ: float = 0.0
    sigma_lD: float = 0.5
    dt: float = 0.01
    t_max: float = 10.0
    schedule: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        negative = [f for f in ("sigma_lZ", "sigma_lD") if not getattr(self, f) >= 0]
        if negative:
            raise InputError("signal-to-noise values must be nonnegative", *negative)
        if not self.dt > 0:
            raise InputError("need dt > 0 and t_max >= dt", "dt")
        if not self.t_max >= self.dt:
            raise InputError("need dt > 0 and t_max >= dt", "dt", "t_max")
        last = -math.inf
        for seg in self.schedule:
            t0, slz, sld = seg
            if t0 <= last:
                raise InputError("schedule breakpoints must strictly increase", "schedule")
            if slz < 0 or sld < 0:
                raise InputError("schedule signal-to-noise must be nonnegative", "schedule")
            last = t0

    def sigma_at(self, t: float) -> tuple[float, float]:
        """Active (sigma_lZ, sigma_lD) at time t."""
        out = (self.sigma_lZ, self.sigma_lD)
        for t0, slz, sld in self.schedule:
            if t0 <= t:
                out = (slz, sld)
            else:
                break
        return out

    def sigma_l_total(self, t: float) -> float:
        slz, sld = self.sigma_at(t)
        return math.hypot(slz, sld)

    def breakpoints(self) -> list[float]:
        return [seg[0] for seg in self.schedule]

    def variance_between(self, t0: float, t1: float) -> tuple[float, float]:
        """Exact (Z-variance, D-variance) of the l-increment over [t0, t1]."""
        if t1 < t0:
            raise InputError("need t1 >= t0")
        edges = [t0] + [b for b in self.breakpoints() if t0 < b < t1] + [t1]
        var_z = 0.0
        var_d = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            slz, sld = self.sigma_at(a)
            var_z += slz * slz * (b - a)
            var_d += sld * sld * (b - a)
        return var_z, var_d

    def jump_grid(self, record_times) -> np.ndarray:
        """Sorted grid of 0, the record times and the breakpoints inside them."""
        inner = [p for p in self.breakpoints() if 0 < p < record_times[-1]]
        return np.unique(np.concatenate([[0.0], np.asarray(record_times, float), inner]))

    def interval_variances(self, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Z-variance, D-variance) arrays of the l-increments between grid points."""
        laws = [self.variance_between(a, b) for a, b in zip(times[:-1], times[1:])]
        return np.array([z for z, _ in laws], float), np.array([d for _, d in laws], float)

    def path_grid(self, record_times=None, t_max=None):
        """(times, cols): a simulation grid and the columns reported on it.

        Without record_times, the dense dt-grid up to the horizon t_max
        (default self.t_max) with every column reported; with them, the jump
        grid with the columns of the record times, which must not pass the
        horizon.
        """
        horizon = self.t_max if t_max is None else t_max
        if record_times is None:
            n_steps = int(round(horizon / self.dt))
            return np.linspace(0.0, n_steps * self.dt, n_steps + 1), slice(None)
        times = self.jump_grid(record_times)
        if times[-1] > horizon:
            raise InputError("record_times exceed the horizon")
        return times, np.searchsorted(times, np.asarray(record_times, float))


@dataclass(frozen=True)
class Milestones:
    """Inferential hurdles in log-odds and in time units.

    H_p is the objective hurdle log((1-p1_0)/p1_0). Time-denominated versions
    divide by the inference speed sigma_l^2/2; the pricing-side hurdles add
    the bias and risk-pricing gaps t_rho and +-t_K to t_p.
    """

    H_p: float
    t_p: float
    t_rho: float
    t_K: float

    @property
    def t_Pi_plus(self) -> float:
        return self.t_rho + self.t_K + self.t_p

    @property
    def t_Pi_minus(self) -> float:
        return self.t_rho - self.t_K + self.t_p

    @classmethod
    def from_params(cls, p1_0: float, rho: float, K: float, sigma_l: float) -> "Milestones":
        if not 0 < p1_0 < 1:
            raise InputError("p1_0 must lie in (0,1)", "p1_0")
        if rho < 1:
            raise InputError("rho must be >= 1 (apply label switching first)", "rho")
        if K < 1:
            raise InputError("K must be >= 1", "K")
        if sigma_l <= 0:
            raise InputError("sigma_l must be positive", "sigma_l")
        h_p = math.log((1 - p1_0) / p1_0)
        rate = sigma_l * sigma_l / 2.0
        return cls(
            H_p=h_p,
            t_p=h_p / rate,
            t_rho=math.log(rho) / rate,
            t_K=math.log(K) / rate,
        )


def loglr_law(t: float, b: int, sigma_l: float) -> tuple[float, float]:
    """(mean, standard deviation) of l_t for outcome b at time t."""
    mean = (1.0 if b == 1 else -1.0) * sigma_l * sigma_l * t / 2.0
    return mean, sigma_l * math.sqrt(t)


def expit(x):
    """Logistic function 1/(1+exp(-x)), in scipy.special.expit's formula.

    A Python float (np.float64 included) goes through math.exp, which gives
    scipy's bits exactly; anything else goes through numpy, whose vectorised
    exp may differ from the C library's in the last bit. Overflow saturates
    to 0 without a warning, as in scipy. Scalar input gives an np.float64.
    """
    if isinstance(x, float):
        try:
            return np.float64(1.0 / (1.0 + math.exp(-x)))
        except OverflowError:
            pass  # exp(-x) beyond the float range: numpy gives 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x)))


def logit(p):
    """Log-odds log(p/(1-p)), in scipy.special.logit's two-branch formula.

    Near p = 1/2 the difference log1p(s) - log1p(-s), s = 2(p - 1/2), keeps
    the precision that the plain quotient loses. Python floats give scipy's
    bits through the math module, as in expit. logit(0) = -inf, logit(1) =
    inf and p outside [0, 1] gives nan, all without a warning.
    """
    if isinstance(p, float):
        try:
            if p < 0.3 or p > 0.65:
                return np.float64(math.log(p / (1.0 - p)))
            s = 2.0 * (p - 0.5)
            return np.float64(math.log1p(s) - math.log1p(-s))
        except (ValueError, ZeroDivisionError):
            pass  # 0, 1 and values outside [0, 1]: numpy gives -inf, inf, nan
    p = np.asarray(p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = 2.0 * (p - 0.5)
        out = np.where((p < 0.3) | (p > 0.65), np.log(p / (1.0 - p)),
                       np.log1p(s) - np.log1p(-s))
    return out[()]


def posterior_from_loglr(prior_odds, loglr):
    """Belief pi from prior odds and accumulated log likelihood-ratio.

    Works in log-odds space so that extreme evidence saturates smoothly to 0
    or 1 instead of overflowing. Accepts scalars or arrays.
    """
    log_odds = np.log(prior_odds) + np.clip(loglr, -LOGLR_SATURATION, LOGLR_SATURATION)
    return expit(log_odds)


def loglr_paths(var_z, var_d, b, z) -> np.ndarray:
    """Exact log-LR paths, one row per outcome in b, starting with a 0 column.

    var_z, var_d are the Z- and D-variances of the intervals; each row of z
    holds a standard normal per interval for the D-stream, then one for the
    Z-stream if drawn (if not, the Z term is left out). Each increment is
    the outcome's drift +/- (var_z + var_d)/2 plus the noise of both streams.
    """
    n = np.size(var_d)
    incr = np.where(b, 1.0, -1.0)[:, None] * ((var_z + var_d) / 2.0) + np.sqrt(var_d) * z[:, :n]
    if z.shape[1] > n:
        incr = incr + np.sqrt(var_z) * z[:, n:]
    paths = np.zeros((incr.shape[0], incr.shape[1] + 1))
    np.cumsum(incr, axis=1, out=paths[:, 1:])
    return paths


def certainty_tracker(t: float, m: Milestones, b: int, sigma_l: float) -> float:
    """Certainty-gap tracker C_t(b) = sigma_l*sqrt(t)/2 * ((-1)^b + t_p/t).

    t_p is the time-denominated objective hurdle. For b=1 the tracker
    bottoms out at zero exactly when t equals the hurdle time; for b=0 it
    is strictly positive (evidence and hurdle point the same way).
    """
    if t <= 0:
        raise InputError("t must be positive")
    return 0.5 * sigma_l * math.sqrt(t) * ((-1.0) ** b + m.t_p / t)


def window_check(t: float, m: Milestones) -> bool:
    """True while data beat the objective hurdle (t_p/t <= 0.2) but not the bias (t_rho/t >= 5)."""
    if t <= 0:
        raise InputError("t must be positive")
    return (m.t_p / t <= 0.2) and (m.t_rho / t >= 5.0)


def event_dominance_loglr(
    t: float, u: float, m: Milestones, sigma_l: float, branch: int = 1, b: int = 1
) -> float:
    """Log likelihood-ratio of hitting the objective hurdle at t vs t +/- u.

    Equals log(1 +/- u/t) + C_{t +/- u}^2 - C_t^2 with the objective tracker;
    identical to twice the gap of Normal log-densities of l at the hurdle.
    Positive values mean the in-window event dominates.
    """
    if u <= 0:
        raise InputError("u must be positive")
    if branch not in (1, -1):
        raise InputError("branch must be +1 or -1")
    if branch == -1 and u >= t:
        raise InputError("u must be below t on the minus branch")
    t2 = t + branch * u
    c_now = certainty_tracker(t, m, b, sigma_l)
    c_then = certainty_tracker(t2, m, b, sigma_l)
    return math.log1p(branch * u / t) + c_then * c_then - c_now * c_now


def _redundancy_map(gprime0: float, b: int):
    """s = +1 (b=1) or -1 (b=0) and the family g(l) = -s*log(g'(0) e^{-s l} + 1 - g'(0))."""
    if not 0 < gprime0 <= 1:
        raise InputError("gprime0 must lie in (0, 1]")
    s = 1.0 if b == 1 else -1.0
    log_tail = math.log(gprime0)
    log_flat = math.log1p(-gprime0) if gprime0 < 1 else -math.inf

    def g(l):
        # log-space sum: the naive form absorbs the exponential tail
        return -s * np.logaddexp(log_tail - s * l, log_flat)

    return s, g


def redundancy_ode_residual(gprime0: float, l_grid: np.ndarray, b: int = 1, h: float = 1e-3) -> float:
    """Max finite-difference residual of the belief-redundancy ODE.

    Two beliefs driven by the same data are deterministic functions of each
    other; writing one log-odds as g(l) of the other, Ito's lemma forces
    g'' = s (g'-1) g' with s=+1 for b=1 and s=-1 for b=0. Every member of
    the _redundancy_map family satisfies the ODE exactly; the residual is
    pure finite-difference noise.
    """
    s, g = _redundancy_map(gprime0, b)
    l = np.asarray(l_grid, float)
    g0, gp, gm = g(l), g(l + h), g(l - h)
    d1 = (gp - gm) / (2 * h)
    d2 = (gp - 2 * g0 + gm) / (h * h)
    resid = d2 - s * (d1 - 1.0) * d1
    return float(np.max(np.abs(resid)))


def redundancy_gap_growth(gprime0: float, l_limit: float = 40.0, b: int = 1) -> float:
    """How far g(l) - l drifts from its value at 0 by |l| = l_limit.

    Only g'(0) = 1 (the identity map) keeps the gap bounded on both sides;
    any other member of the family loses track of the driving log-LR
    linearly on one tail.
    """
    _, g = _redundancy_map(gprime0, b)
    g0 = float(g(0.0))
    return max(abs(float(g(l)) - l - g0) for l in (l_limit, -l_limit))
