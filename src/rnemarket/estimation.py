"""Recovery of (K, rho) from volatility-conditioned excess curves.

The excess curve of folded belief cohorts peaks at v = 1/(rho+1) with size
(K-1)/(2(K+1))*S_delta, so its peak location reveals the bias and its peak
size the risk loading, with no further inputs. This module locates the peak
robustly on noisy binned curves, inverts the two formulas, and runs the
full simulate-sort-measure-recover round trip with bootstrap intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .anomalies import CohortCurve
from .inference import InputError, window_check, write_csv
from .market import (
    CohortSort,
    MarketConfig,
    cohort_table,
    measure_expost_excess,
    simulate_blocks,
    sort_cohorts,
)

__all__ = [
    "ShapeError",
    "EstimationResult",
    "find_peak",
    "recover_params",
    "roundtrip",
    "format_report",
    "write_roundtrip_csv",
]

FLATNESS_CONFIDENCE = 0.999
# Usable volatility bins in find_peak's quadratic window, and the fewest it fits.
FIT_WIDTH = 5
# Paths a bootstrap resample's estimate can take: the quadratic peak fit, the
# best lower-confidence-bound bin, the fold median belief.
BOOT_PATHS = ("regular", "peak_shape_unresolved", "no_significant_peak")
# Category codes compared per step when finding a group's members, so that
# no n-sized temporary is built.
_SCAN = 1 << 16


class ShapeError(ValueError):
    """Curve shape unsuitable for peak extraction; diagnostics attached."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.reason = message
        self.diagnostics = diagnostics or {}


@dataclass
class EstimationResult:
    v_max_hat: float
    rp_max_hat: float
    rho_hat: float
    K_hat: float
    diagnostics: dict = field(default_factory=dict)


def _usable_mask(curve: CohortCurve, n_min: int) -> np.ndarray:
    return np.isfinite(curve.rp) & np.isfinite(curve.se) & (curve.se > 0) & (curve.n >= n_min)


def _chi2_sf(q: float, dof: int) -> float:
    """P(X > q) for X chi-square with an integer dof >= 1.

    The finite Poisson sum of Abramowitz & Stegun (1964) 26.4.4/26.4.5:
    with y = q/2, the terms y^(a0+j) e^-y / Gamma(a0+j+1) for j < dof//2,
    a0 = 1/2 for odd dof (plus erfc(sqrt(y))) and 0 for even dof.
    """
    if q <= 0:
        return 1.0
    y = q / 2.0
    a0 = 0.5 * (dof % 2)
    log_y = math.log(y)
    terms = [
        math.exp((a0 + j) * log_y - y - math.lgamma(a0 + j + 1)) for j in range(dof // 2)
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def _flatness_gate(rp: np.ndarray, se: np.ndarray) -> tuple[bool, dict]:
    w = 1.0 / se**2
    wmean = float(np.sum(w * rp) / np.sum(w))
    q = float(np.sum(((rp - wmean) / se) ** 2))
    p = _chi2_sf(q, len(rp) - 1)
    return p > 1 - FLATNESS_CONFIDENCE, {
        "flatness_Q": q,
        "flatness_p": p,
        "weighted_mean_rp": wmean,
        "weighted_mean_se": float(1.0 / math.sqrt(np.sum(w))),
    }


def _rival_peaks(v: np.ndarray, rp: np.ndarray, se: np.ndarray, i_best: int) -> list:
    """Interior local maxima that stand out beyond noise, other than the best.

    Prominence is rival minus the valley floor between it and the best
    point, so the noise test combines the uncertainty of both ends.
    """
    rivals = []
    for j in range(1, len(rp) - 1):
        if j == i_best or not (rp[j] > rp[j - 1] and rp[j] > rp[j + 1]):
            continue
        lo, hi = sorted((j, i_best))
        k_valley = lo + int(np.argmin(rp[lo : hi + 1]))
        prominence = rp[j] - rp[k_valley]
        if prominence > 3.0 * math.hypot(float(se[j]), float(se[k_valley])):
            rivals.append((float(v[j]), float(rp[j]), float(prominence)))
    return rivals


def find_peak(curve: CohortCurve, n_min: int = 50):
    """Locate a volatility curve's peak with a local quadratic fit around the argmax.

    Uses a FIT_WIDTH-point window centered on the best lower-confidence-bound
    point (rp - se) and an inverse-variance weighted fit, which keeps one
    lucky thin bin from dragging the vertex off a flat-topped peak. Falls
    back to the raw argmax when the fitted quadratic is not concave or its
    vertex leaves the window.

    Returns (v_max, rp_max, fit_stats). Raises ShapeError on flat curves
    (noise-level variation only), monotone curves, or multiple separated
    peaks; diagnostics ride on the exception. A curve of another kind, or
    one without standard errors, is an InputError.
    """
    if curve.kind != "volatility":
        raise InputError(f"find_peak takes volatility curves, not {curve.kind!r}")
    if curve.se is None:
        raise InputError("find_peak takes measured curves, with standard errors")
    ok = _usable_mask(curve, n_min)
    v = curve.v[ok]
    y = curve.rp[ok]
    se = curve.se[ok]
    stats: dict = {"n_usable": int(len(v)), "kind": curve.kind, "method": "quadratic-local-fit"}
    if len(v) < FIT_WIDTH:
        raise ShapeError(f"fewer than {FIT_WIDTH} usable points", stats)

    flat, fstats = _flatness_gate(y, se)
    stats.update(fstats)
    if flat:
        k = int(np.argmax(y - se))
        stats["lcb_v"] = float(v[k])
        stats["lcb_rp"] = float(y[k])
        stats["lcb_se"] = float(se[k])
        raise ShapeError("flat curve", stats)

    diffs = np.diff(y)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))

    i = int(np.argmax(y - se))
    stats["argmax_v"] = float(v[i])

    rivals = _rival_peaks(v, y, se, i)
    if rivals:
        stats["rival_peaks"] = rivals
        raise ShapeError("multiple peaks", stats)

    lo = min(max(i - FIT_WIDTH // 2, 0), len(v) - FIT_WIDTH)
    window = slice(lo, lo + FIT_WIDTH)
    vw, yw = v[window], y[window]
    a, b, c = (float(x) for x in np.polyfit(vw, yw, 2, w=1.0 / se[window]))
    stats["window_v"] = (float(vw[0]), float(vw[-1]))
    stats["quad_coeffs"] = (a, b, c)
    vertex_ok = False
    if a < 0:
        v_hat = -b / (2 * a)
        y_hat = c - b * b / (4 * a)
        vertex_ok = vw[0] <= v_hat <= vw[-1]
    if monotone and not vertex_ok:
        # a genuinely rising/falling curve, not a peak flattening into the
        # domain edge (that case leaves a concave fit with an interior vertex)
        raise ShapeError("monotone curve", stats)
    stats["vertex_in_window"] = vertex_ok
    if vertex_ok:
        return float(v_hat), float(y_hat), stats
    j = int(np.argmax(y))
    return float(v[j]), float(y[j]), stats


def recover_params(v_max: float, rp_max: float, S_delta: float) -> tuple[float, float]:
    """Invert the peak formulas: location gives rho, size gives K."""
    if not 0 < v_max <= 0.5:
        raise InputError("v_max must lie in (0, 1/2]")
    if S_delta <= 0:
        raise InputError("S_delta must be positive")
    r = rp_max / S_delta
    if r < 0:
        raise InputError("rp_max must be nonnegative")
    if r >= 0.5:
        raise InputError("rp_max >= S_delta/2 is outside the model (K would be infinite)")
    rho_hat = 1.0 / v_max - 1.0
    K_hat = (1.0 + 2.0 * r) / (1.0 - 2.0 * r)
    return rho_hat, K_hat


def _belief_groups(table: np.ndarray) -> tuple:
    """(groups, size, cum): the volatility sort's (bin, side) groups, code >> 2,
    in belief order, their weights in the category table, and the running totals.

    The low side by ascending bin (Pi = folded level), then the high side by
    descending bin (Pi = 1 - level): every belief of a group is at most
    every belief of the groups after it.
    """
    keys = np.arange(table.size // 4)
    groups = np.concatenate([keys[0::2], keys[1::2][::-1]])
    size = table.reshape(-1, 4).sum(axis=1)[groups]
    return groups, size, np.cumsum(size)


def _group_scan(code: np.ndarray, g: int):
    """(start, mask) per _SCAN codes from start: mask marks the members of group g."""
    for lo in range(0, len(code), _SCAN):
        yield lo, code[lo : lo + _SCAN] >> 2 == g


def _fold_median_level(Pi: np.ndarray, code: np.ndarray, table: np.ndarray) -> float:
    """Fallback level for featureless curves: fold of np.median(Pi), bit for bit.

    code and table are the volatility sort's. The order statistics n//2 - 1
    and n//2 lie in the groups that the table's cumulative group counts
    find, in belief order; only those groups' beliefs are gathered and
    partitioned. For even n the median is their mean (a + b)/2, as in
    np.median, which would copy all n beliefs and import numpy.ma.
    """
    groups, size, cum = _belief_groups(table)

    def nth(k: int) -> float:
        i = int(np.searchsorted(cum, k, side="right"))
        vals, at = np.empty(size[i]), 0
        for lo, mask in _group_scan(code, int(groups[i])):
            part = Pi[lo : lo + _SCAN][mask]
            vals[at : at + len(part)] = part
            at += len(part)
        j = k - int(cum[i] - size[i])
        vals.partition(j)
        return vals[j]

    n = len(Pi)
    med = float(nth(n // 2) if n % 2 else (nth(n // 2 - 1) + nth(n // 2)) / 2)
    return min(med, 1.0 - med)


def _estimate(curve: CohortCurve, n_min: int, S_delta: float, median_level, lenient: bool):
    """The curve's peak read as (v, rp, rho, K, fit stats, path), path in BOOT_PATHS.

    "regular" is find_peak's fit. A level indistinguishable from zero is the
    unpriced (K=1) signature whatever the shape defect (flat, spurious rival
    bumps, a drifting monotone of noise): "no_significant_peak" puts the
    location at median_level() and the size at the mean level. A flat curve
    with a clearly positive level is an under-resolved peak:
    "peak_shape_unresolved" takes the best lower-confidence-bound bin. Other
    defects of a clearly positive curve re-raise with the curve attached,
    unless lenient (bootstrap resamples). rp is clamped below S_delta/2.
    """
    try:
        v_hat, rp_hat, stats = find_peak(curve, n_min=n_min)
        path = "regular"
    except ShapeError as err:
        stats = dict(err.diagnostics)
        wm = stats.get("weighted_mean_rp")
        sew = stats.get("weighted_mean_se")
        level_known = wm is not None and sew is not None
        significant = level_known and wm > 3.0 * sew
        if err.reason == "flat curve" and significant and "lcb_v" in stats:
            v_hat, rp_hat, path = stats["lcb_v"], stats["lcb_rp"], "peak_shape_unresolved"
        elif not lenient and (significant or not level_known):
            err.diagnostics["curve"] = curve
            raise
        else:
            v_hat, path = median_level(), "no_significant_peak"
            rp_hat = max(0.0, wm) if level_known else 0.0
    rp_hat = min(max(rp_hat, 0.0), 0.499999 * S_delta)
    return (v_hat, rp_hat, *recover_params(v_hat, rp_hat, S_delta), stats, path)


def _percentiles(x, qs) -> tuple:
    """np.percentile(x, qs) of finite x bit for bit, without its numpy.ma import: at
    v = (n - 1) q/100, i = floor(v), g = v - i, numpy's _lerp of x_(i), x_(i+1) by g."""
    s = np.sort(x)
    out = []
    for q in qs:
        v = (len(s) - 1) * (q / 100)
        i = -1 if v >= len(s) - 1 else math.floor(v)
        a, b, g = s[i], s[i + 1 if i >= 0 else -1], v - i
        out.append(float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g))
    return tuple(out)


def _pick_epoch(config: MarketConfig) -> tuple[float, bool]:
    """The last record time in the anomaly window, True; else the last one, False.

    Each record time t is judged at sigma_l_total(t), the constant
    signal-to-noise that gives l_t the schedule's law. A record time with
    no variance built up by then (V_t = 0) cannot be in the window: its
    milestones never arrive.
    """
    in_win = []
    for t in config.record_times:
        sigma_l = config.inference.sigma_l_total(t)
        if sigma_l > 0 and window_check(t, config.milestones(sigma_l)):
            in_win.append(t)
    if in_win:
        return in_win[-1], True
    return config.record_times[-1], False


def roundtrip(
    config: MarketConfig,
    seed: int,
    t: float | None = None,
    n_boot: int = 200,
) -> EstimationResult:
    """Simulate epoch t, sort volatility cohorts, and read the peak as (K, rho).

    Of the panel, simulated block by block, each asset's belief at t and
    category code are kept (the bin edges depend on n_bins alone, so the
    blocks' codes are the panel's): 9 bytes per asset while the code fits
    in one byte (n_bins up to 65). The table is the sum of the blocks'.
    The point estimate and each bootstrap resample (a table drawn from it by
    _TableBootstrap) go through measure_expost_excess and _estimate alike; a
    fallback path is a flag on the point estimate and a count in
    diagnostics["boot_paths"] on the resamples. A ShapeError carries the
    measured curve. Fewer than FIT_WIDTH volatility bins (an InputError on
    n_bins) and a t that is not a record time (an InputError on t) are
    raised before simulating.
    """
    if config.n_bins // 2 < FIT_WIDTH:
        raise InputError(
            f"n_bins must be at least {2 * FIT_WIDTH} for the peak fit", "n_bins"
        )
    t, in_win = _pick_epoch(config) if t is None else (t, None)
    Pi, code, table = np.empty(config.n_assets), None, 0
    for block in simulate_blocks(config, seed, epochs=[config.time_index(t)]):
        sort = sort_cohorts(block, t, conditioning="volatility")
        if code is None:
            code = np.empty(config.n_assets, sort.code.dtype)
        rows = slice(block.first_id, block.first_id + block.n_assets)
        Pi[rows], code[rows] = block.Pi[:, 0], sort.code
        table = table + cohort_table(sort)
    sort = replace(sort, code=code)
    S_delta = config.pricing.S_delta
    curve = measure_expost_excess(sort, table, S_delta)["volatility"]
    v_hat, rp_hat, rho_hat, K_hat, stats, path = _estimate(
        curve, config.n_min, S_delta, lambda: _fold_median_level(Pi, code, table), lenient=False
    )
    flags = ["no_in_window_epoch"] if in_win is False else []
    if path != "regular":
        flags.append(path)
    diag = {
        "t": t,
        "seed": seed,
        "n_assets": config.n_assets,
        "K_true": config.pricing.K,
        "rho_true": config.truth.rho,
        "S_delta": S_delta,
        "flags": flags,
        "fit": stats,
        "curve": curve,
    }

    if n_boot > 0:
        boot = _TableBootstrap(sort, table, Pi, np.random.default_rng([seed, 0xB007]))
        draws, paths = [], dict.fromkeys(BOOT_PATHS, 0)
        for _ in range(n_boot):
            k = boot.draw()
            _, _, rho_b, K_b, _, path = _estimate(
                measure_expost_excess(sort, k, S_delta)["volatility"], config.n_min, S_delta,
                lambda: boot.fold_median(k), lenient=True,
            )
            paths[path] += 1
            draws.append((rho_b, K_b))
        for key, vals in zip(("rho", "K"), zip(*draws)):
            diag[f"{key}_ci"] = _percentiles(vals, (2.5, 97.5))
        diag.update(n_boot=n_boot, boot_paths=paths)

    return EstimationResult(
        v_max_hat=v_hat, rp_max_hat=rp_hat, rho_hat=rho_hat, K_hat=K_hat, diagnostics=diag
    )


class _TableBootstrap:
    """Percentile-bootstrap resamples of the volatility sort's category table.

    Resampling the n assets with replacement and summing within each
    (bin, fold side, sign, B) category is one Multinomial(n, m_c/n) draw
    over the categories, m_c being the category's count (Efron &
    Tibshirani 1993, ch. 6), so a resample costs O(categories), not O(n).
    Only the empty categories are left out of the draw, so the remainder
    of its sequential binomials always lands on an occupied category.
    table is the sort's unit-weight cohort_table, the point estimate's own;
    vals are the beliefs the fold-median fallback reads.
    """

    def __init__(self, sort: CohortSort, table: np.ndarray, vals: np.ndarray, rng):
        self.code = sort.code
        self.vals = vals
        self.rng = rng
        self.n = len(vals)
        m = table.ravel()
        self.n_cat = m.size
        self.occupied = np.flatnonzero(m)
        self.p = m[self.occupied] / self.n
        self._members = {}

    def draw(self) -> np.ndarray:
        """One resample's category table, shaped like cohort_table."""
        k = np.zeros(self.n_cat, np.int64)
        k[self.occupied] = self.rng.multinomial(self.n, self.p)
        return k.reshape(-1, 2, 2, 2)

    def members(self, g: int):
        """Group g's assets by ascending belief, and each category's positions among them."""
        if g not in self._members:
            idx = np.concatenate([np.flatnonzero(m) + lo for lo, m in _group_scan(self.code, g)])
            idx = idx[np.argsort(self.vals[idx], kind="stable")]
            cat = self.code[idx] & 3
            self._members[g] = idx, [np.flatnonzero(cat == c) for c in range(4)]
        return self._members[g]

    def median(self, table, weigh) -> float:
        """Fold of the weighted median belief of a resample with category table.

        The median is the belief at the first position, in belief order,
        whose cumulative weight reaches half the total, the rule of the
        asset-level weighted median. The table's cumulative group weights
        find the group holding it; weigh(counts, idx, pos) gives the
        integer weights of that group's members idx, whose categories
        hold counts and sit at positions pos.
        """
        groups, size, cum = _belief_groups(table)
        half = cum[-1] / 2.0
        i = int(np.searchsorted(cum, half))
        g = int(groups[i])
        idx, pos = self.members(g)
        w = weigh(table.reshape(-1, 4)[g], idx, pos)
        j = int(np.searchsorted(cum[i] - size[i] + np.cumsum(w), half))
        med = float(self.vals[idx[j]])
        return min(med, 1.0 - med)

    def fold_median(self, table) -> float:
        """median of a table from draw, its members drawn given the table.

        Given its count k_c, a category's m_c members share the k_c draws as
        Multinomial(k_c, uniform), independently across categories: the
        conditional law of the asset-level resample, so the median's law is
        exact. Only the median's group is drawn.
        """
        return self.median(table, self._draw_members)

    def _draw_members(self, counts, idx, pos) -> np.ndarray:
        # k_c uniform picks among m_c members: Multinomial(k_c, 1/m_c) counts
        w = np.zeros(len(idx), np.int64)
        for k, p in zip(counts, pos):
            if k:
                w[p] = np.bincount(self.rng.integers(len(p), size=k), minlength=len(p))
        return w


def format_report(res: EstimationResult) -> str:
    d = res.diagnostics
    lines = [
        "volatility-curve recovery",
        f"  truth:     K={d['K_true']:g} rho={d['rho_true']:g}",
        f"  estimate:  K_hat={res.K_hat:.6g} rho_hat={res.rho_hat:.6g}",
        f"  peak:      v_max={res.v_max_hat:.6g} rp_max={res.rp_max_hat:.6g}"
        f" (S_delta={d['S_delta']:g} assumed known)",
        f"  epoch t={d['t']:g}, N={d['n_assets']}, seed={d['seed']}",
    ]
    if "K_ci" in d:
        lines.append(
            f"  bootstrap 95% CIs: K [{d['K_ci'][0]:.4g}, {d['K_ci'][1]:.4g}],"
            f" rho [{d['rho_ci'][0]:.4g}, {d['rho_ci'][1]:.4g}] ({d['n_boot']} resamples)"
        )
    if d["flags"]:
        lines.append("  flags: " + ", ".join(d["flags"]))
    if "boot_paths" in d:
        lines.append(
            "  bootstrap paths: " + ", ".join(f"{k} {v}" for k, v in d["boot_paths"].items())
        )
    return "\n".join(lines)


def write_roundtrip_csv(path, res: EstimationResult) -> None:
    """roundtrip's result as one CSV row; the CIs are NaN without resamples."""
    d = res.diagnostics
    nan2 = (math.nan, math.nan)
    row = [
        d["K_true"], d["rho_true"], res.K_hat, res.rho_hat, res.v_max_hat, res.rp_max_hat,
        *d.get("K_ci", nan2), *d.get("rho_ci", nan2), d["n_assets"], d["seed"],
    ]
    write_csv(
        path,
        [
            "K_true", "rho_true", "K_hat", "rho_hat", "v_max", "rp_max",
            "K_ci_lo", "K_ci_hi", "rho_ci_lo", "rho_ci_hi", "n_assets", "seed",
        ],
        [[x] for x in row],
    )
