"""Cross-sectional return anatomy: momentum and volatility curves, mixes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import expit, logit
from scipy.stats import norm

from rnemarket import inference
from rnemarket.anomalies import (
    AnomalyParams,
    CohortCurve,
    _log_occupancy,
    analytic_curve,
    default_grid,
    event_likelihood_ratio,
    event_lr_from_ratio,
    lowrisk_peak,
    momentum_excess,
    momentum_mix,
    momentum_pair_profit,
    momentum_peak,
    occupancy_density,
    peak_report,
    true_change_prob,
    vol_conditioned_excess,
    vol_mix,
)
from rnemarket.cli import _curve_params, parse_config
from rnemarket.inference import InputError, Milestones

from momentum_bins import bin_averaged_momentum

T = 2.4
SIGMA = 0.5


def params_at(rho=9.0, K=1.5, t=T, p1_0=0.49):
    return AnomalyParams.from_primitives(p1_0, rho, K, SIGMA, t)


def _event_level(v, sign, pars):
    """Log-LR level at which a sign-`sign` asset prices the change at v."""
    return logit(v) + sign * math.log(pars.K) + pars.H_p + math.log(pars.rho)


def test_momentum_excess_spot_value():
    rp = momentum_excess(0.5, 1, 9.0, 1.5, 1.0)
    assert rp == pytest.approx(0.431034482758620, abs=1e-12)
    # formula restated from first principles: p - v with the true change
    # probability recovered by unwinding bias and risk discount
    p = true_change_prob(0.5, 1, 9.0, 1.5)
    assert rp == pytest.approx(p - 0.5, abs=1e-14)


@given(
    v=st.floats(0.01, 0.99),
    rho=st.floats(0.1, 40.0),
    K=st.floats(1.0, 2.5),
)
def test_momentum_excess_label_switch_invariance(v, rho, K):
    # relabeling the outcome flips the branch, the level, and the bias
    a = momentum_excess(v, 1, rho, K, 1.0)
    b = momentum_excess(1 - v, -1, 1 / rho, K, 1.0)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_momentum_peak_matches_fine_grid():
    for sign in (1, -1):
        v_star, rp_star = momentum_peak(9.0, 1.5, 1.0, sign)
        grid = np.linspace(1e-4, 1 - 1e-4, 20001)
        vals = momentum_excess(grid, sign, 9.0, 1.5, 1.0)
        i = int(np.argmax(np.abs(vals)))
        assert abs(grid[i] - v_star) <= 1e-4 + 1e-12
        assert abs(vals[i] - rp_star) <= 1e-7


def test_momentum_peak_published_constants():
    v_p, rp_p = momentum_peak(9.0, 1.5, 1.0, 1)
    v_m, rp_m = momentum_peak(9.0, 1.5, 1.0, -1)
    assert v_p == pytest.approx(1 / (math.sqrt(13.5) + 1), abs=1e-15)
    assert rp_p == pytest.approx((math.sqrt(13.5) - 1) / (math.sqrt(13.5) + 1), abs=1e-15)
    assert v_m == pytest.approx(1 / (math.sqrt(6.0) + 1), abs=1e-15)
    assert rp_m == pytest.approx(-(math.sqrt(6.0) - 1) / (math.sqrt(6.0) + 1), abs=1e-15)
    pair = momentum_pair_profit(9.0, 1.5, 1.0)
    assert pair == pytest.approx(0.5 * (rp_p - rp_m), abs=1e-15)


def test_event_likelihood_ratio_example_and_monotonicity():
    assert event_lr_from_ratio(0.25, 3.0, 1) == pytest.approx(1.0 / 9.0, abs=1e-12)
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    vals = [event_likelihood_ratio(v, T, m, 1, 1) for v in (0.1, 0.2, 0.3, 0.4)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_momentum_mix_is_exactly_the_sign_density_ratio():
    pars = params_at()
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    sd = SIGMA * math.sqrt(T)
    for B, mu in ((1, SIGMA**2 * T / 2), (0, -(SIGMA**2) * T / 2)):
        for v in (0.05, 0.2, 0.5, 0.8):
            got = momentum_mix(v, T, m, 9.0, 1.5, B)
            want = norm.pdf(_event_level(v, 1, pars), mu, sd) / norm.pdf(
                _event_level(v, -1, pars), mu, sd
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_vol_mix_is_exactly_the_folded_density_ratio():
    pars = params_at()
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    sd = SIGMA * math.sqrt(T)
    for B, mu in ((1, SIGMA**2 * T / 2), (0, -(SIGMA**2) * T / 2)):
        for v in (0.05, 0.2, 0.45, 0.5):
            got = vol_mix(v, T, m, 9.0, 1.5, B)
            num = norm.pdf(_event_level(v, 1, pars), mu, sd) + norm.pdf(
                _event_level(1 - v, 1, pars), mu, sd
            )
            den = norm.pdf(_event_level(v, -1, pars), mu, sd) + norm.pdf(
                _event_level(1 - v, -1, pars), mu, sd
            )
            assert got == pytest.approx(num / den, rel=1e-12)
    # at the fold point both conditionings coincide
    assert vol_mix(0.5, T, m, 9.0, 1.5, 1) == pytest.approx(
        momentum_mix(0.5, T, m, 9.0, 1.5, 1), rel=1e-14
    )
    with pytest.raises(InputError):
        vol_mix(0.6, T, m, 9.0, 1.5, 1)


def test_mixes_decline_and_are_unit_when_unpriced():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    grid = np.linspace(0.02, 0.499, 40)
    mo = np.array([momentum_mix(v, T, m, 9.0, 1.5, 1) for v in grid])
    vo = np.array([vol_mix(v, T, m, 9.0, 1.5, 1) for v in grid])
    assert np.all(np.diff(mo) < 0)
    assert np.all(np.diff(vo) < 0)
    m1 = Milestones.from_params(0.49, 9.0, 1.0, SIGMA)
    assert momentum_mix(0.3, T, m1, 9.0, 1.0, 1) == pytest.approx(1.0, abs=1e-14)
    assert momentum_mix(0.3, T, m1, 9.0, 1.0, 0) == pytest.approx(1.0, abs=1e-14)


def test_mix_reverts_at_long_horizon():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    early = vol_mix(0.45, 2.4, m, 9.0, 1.5, 1)
    late = vol_mix(0.45, 8.0, m, 9.0, 1.5, 1)
    assert early < late < 1.0
    # once the level preference washes out only the sign preference is left
    assert vol_mix(0.45, 2000.0, m, 9.0, 1.5, 1) == pytest.approx(1.5, abs=0.01)
    assert vol_mix(0.45, 2000.0, m, 9.0, 1.5, 0) == pytest.approx(1 / 1.5, abs=0.01)


def test_occupancy_density_integrates_to_one():
    pars = params_at()
    for sign in (1, -1):
        total, err = quad(lambda v: occupancy_density(v, sign, pars), 1e-12, 1 - 1e-12,
                          limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_vol_conditioned_excess_shape():
    pars = params_at()
    grid = default_grid("volatility", 1e-3)
    vals = vol_conditioned_excess(grid, pars)
    # positive everywhere in (0, 1/2], single interior maximum near 0.1
    assert np.all(vals > 0)
    i = int(np.argmax(vals))
    assert abs(grid[i] - 0.1) < 0.02
    d = np.diff(vals)
    # no interior strict local minimum: falling never turns back to rising
    falling = np.nonzero(d < 0)[0]
    if len(falling):
        assert np.all(d[falling[0]:] <= 0)


def test_vol_curve_vanishes_when_unpriced():
    pars = params_at(K=1.0)
    grid = np.linspace(0.01, 0.5, 50)
    rp = vol_conditioned_excess(grid, pars)
    assert np.array_equal(rp, np.zeros_like(grid)) and not np.signbit(rp).any()


def test_vol_curve_exact_and_symmetric_at_rho_one():
    pars = params_at(rho=1.0)
    rep = peak_report("volatility", pars, step=1e-3)
    assert rep["v_max"] == pytest.approx(0.5, abs=1e-12)
    assert rep["rp_max"] == pytest.approx(0.5 * 0.5 / 2.5, abs=1e-12)
    # label switch: the central derivative of the curve vanishes at 1/2
    h = 1e-5
    lo = vol_conditioned_excess(np.array([0.5 - h]), pars)[0]
    hi = vol_conditioned_excess(np.array([0.5 - 2 * h]), pars)[0]
    assert abs(lo - hi) / h < 1e-2  # flat top


def test_peak_lattice_tracks_the_closed_form():
    # the closed form is exact at rho=1 (fold symmetry) and once the peak
    # sits far from 1/2; at rho=3 the mirror image still carries weight and
    # drags the argmax a few hundredths toward the fold
    for rho in (1.0, 3.0, 9.0, 27.0):
        tol_v, tol_rel = (0.04, 0.06) if rho == 3.0 else (1e-3, 1e-3)
        for K in (1.2, 1.5, 1.9):
            pars = params_at(rho=rho, K=K)
            rep = peak_report("volatility", pars, step=1e-3)
            v_t, rp_t = lowrisk_peak(rho, K, 1.0)
            assert abs(rep["v_max"] - v_t) <= tol_v, (rho, K)
            assert abs(rep["rp_max"] - rp_t) <= tol_rel * rp_t + 1e-12, (rho, K)


def test_half_point_stays_below_half_peak_when_biased():
    for rho in (9.0, 27.0):
        pars = params_at(rho=rho)
        mid = vol_conditioned_excess(np.array([0.5]), pars)[0]
        _, rp_max = lowrisk_peak(rho, 1.5, 1.0)
        assert mid < rp_max / 2


def test_lowrisk_peak_label_switch_below_one():
    # a status-quo-averse market is the mirror image of an averse one
    v_a, rp_a = lowrisk_peak(9.0, 1.5, 1.0)
    v_b, rp_b = lowrisk_peak(1 / 9.0, 1.5, 1.0)
    assert v_a == pytest.approx(v_b, abs=1e-14)
    assert rp_a == pytest.approx(rp_b, abs=1e-14)


def test_analytic_curve_weights_are_occupancy_masses():
    pars = params_at()
    curve = analytic_curve("volatility", pars)
    assert curve.kind == "volatility"
    assert np.all(np.diff(curve.v) > 0)
    assert curve.v[-1] <= 0.5
    assert np.all(curve.n >= 0)
    # weights are folded occupancy densities: they integrate to one
    assert np.trapezoid(curve.n, curve.v) == pytest.approx(1.0, abs=1e-3)


def _former_curve(kind, p, grid):
    """analytic_curve's (rp, n) written out as each term was once computed:
    one logit per sign and per use, and the folded weights computed afresh
    for the n column. Operation order is the package's, so the bits agree."""
    logit, expit = inference.logit, inference.expit

    def log_occupancy(v, s):
        v = np.asarray(v, float)
        level = p.H_p + math.log(p.rho) + s * math.log(p.K) + logit(v)
        scale = p.sigma_l * math.sqrt(p.t)

        def logpdf(b):
            z = (level - (1.0 if b == 1 else -1.0) * p.sigma_l * p.sigma_l * p.t / 2.0) / scale
            return -z**2 / 2.0 - 0.5 * math.log(2 * math.pi) - math.log(scale)

        la = np.log(p.p1_0) + logpdf(1)
        lb = np.log1p(-p.p1_0) + logpdf(0)
        return np.logaddexp(la, lb) - np.log(v * (1 - v))

    def folded(u):
        return np.logaddexp(log_occupancy(u, 1), log_occupancy(u, -1)) - math.log(2.0)

    def arm(u):
        u = np.asarray(u, float)
        up = expit(logit(u) + math.log(p.rho) + 1 * math.log(p.K))
        down = expit(logit(u) + math.log(p.rho) + -1 * math.log(p.K))
        return 0.5 * (up - down) * p.S_delta

    if kind == "volatility":
        v = np.minimum(grid, 0.5)
        if p.K == 1.0:
            rp = np.zeros_like(v)
        else:
            w_lo = expit(folded(v) - folded(1 - v))
            rp = w_lo * arm(v) + (1 - w_lo) * arm(1 - v)
        return rp, np.exp(folded(grid)) + np.exp(folded(1 - grid))
    s = 1 if kind == "momentum_plus" else -1
    a = 1.0 / (p.rho * p.K**s)
    rp = s * grid * (1 - grid) * (1 - a) / (grid + (1 - grid) * a) * p.S_delta
    return rp, np.exp(log_occupancy(grid, s))


@pytest.mark.parametrize("schedule", ["", "inference.schedule = 1.005:0:0.2\n"])
def test_analytic_curve_is_bit_equal_to_its_former_formulas(schedule):
    # the benchmark's (rho, K) lattice at its 20,000 grid points, and K = 1
    rc = parse_config("curves.rho_list = 3, 9, 27\ncurves.K_list = 1, 1.2, 1.5, 1.9\n"
                      "curves.grid_points = 20000\n" + schedule)
    for rho in rc.curves_rho:
        for K in rc.curves_K:
            p = _curve_params(rc, rho, K)
            for kind in ("momentum_plus", "momentum_minus", "volatility"):
                grid = default_grid(kind, 1.0 / rc.grid_points)
                curve = analytic_curve(kind, p, grid)
                rp, n = _former_curve(kind, p, grid)
                assert curve.rp.tobytes() == rp.tobytes(), (rho, K, kind)
                assert curve.n.tobytes() == n.tobytes(), (rho, K, kind)
    # a level past 1/2 within the tolerance: rp reads it clipped, n as given
    grid = np.array([0.1, 0.3, 0.5 + 5e-13])
    for K in rc.curves_K:
        p = _curve_params(rc, 9.0, K)
        curve = analytic_curve("volatility", p, grid)
        rp, n = _former_curve("volatility", p, grid)
        assert (curve.rp.tobytes(), curve.n.tobytes()) == (rp.tobytes(), n.tobytes()), K


def test_bin_averaged_momentum_matches_point_values_on_narrow_bins():
    pars = params_at()
    edges = np.array([0.30, 0.3002, 0.3004])
    centers, rp_pred, mass = bin_averaged_momentum(edges, 1, pars)
    point = momentum_excess(centers, 1, 9.0, 1.5, 1.0)
    assert np.allclose(rp_pred, point, atol=1e-5)
    assert np.all(mass > 0)


def test_cohort_curve_validation():
    with pytest.raises(InputError):
        CohortCurve("bogus", np.array([0.1]), np.array([0.0]), np.array([1]))
    with pytest.raises(InputError):
        CohortCurve("volatility", np.array([0.2, 0.1]), np.zeros(2), np.ones(2))
    with pytest.raises(InputError):
        CohortCurve("volatility", np.array([0.1, 0.6]), np.zeros(2), np.ones(2))


def test_anomaly_params_reject_out_of_range_primitives():
    with pytest.raises(InputError):
        AnomalyParams.from_primitives(0.49, -1.0, 1.5, SIGMA, T)
    with pytest.raises(InputError):
        AnomalyParams.from_primitives(0.49, 9.0, 0.9, SIGMA, T)


def test_log_occupancy_is_bit_equal_to_the_scipy_stats_form():
    # the level takes the package's own logit, so that the comparison pins
    # the closed-form _norm_logpdf to norm.logpdf and nothing else
    v = np.linspace(1e-6, 1 - 1e-6, 20_001)
    for rho, K, t in ((9.0, 1.5, T), (1.0, 1.0, 0.3), (27.0, 1.9, 8.0)):
        p = params_at(rho=rho, K=K, t=t)
        for s in (1, -1):
            level = p.H_p + math.log(p.rho) + s * math.log(p.K) + inference.logit(v)
            sd = p.sigma_l * math.sqrt(p.t)
            half_var = p.sigma_l**2 * p.t / 2.0
            la = np.log(p.p1_0) + norm.logpdf(level, loc=half_var, scale=sd)
            lb = np.log1p(-p.p1_0) + norm.logpdf(level, loc=-half_var, scale=sd)
            want = np.logaddexp(la, lb) - np.log(v * (1 - v))
            assert np.array_equal(_log_occupancy(v, s, p), want)


def test_default_grid_keeps_aranges_levels_inside_the_curve_domain():
    # arange's volatility grid passes 1/2 (plus analytic_curve's 1e-12) at
    # 21, 43, 57, 73, ... and 33333 points; its momentum grid ends at 1.0 at
    # 19, 27, 63, 171, ... and 41391. At 200, 1,000, 2,000 and 20,000 points
    # neither overshoots, and the grids are arange's as they were
    params = AnomalyParams.from_primitives(0.49, 9.0, 1.5, 0.5, 2.4)
    past_half = (21, 43, 57, 73, 33333)
    at_one = (19, 27, 63, 171, 41391)
    for points in past_half + at_one + (200, 1_000, 2_000, 20_000):
        step = 1.0 / points
        for kind, stop, top in (("volatility", 0.5 + step / 2, 0.5 + 1e-12),
                                ("momentum_plus", 1.0, np.nextafter(1.0, 0))):
            whole = np.arange(step, stop, step)
            grid = default_grid(kind, step)
            cut = points in (past_half if kind == "volatility" else at_one)
            assert len(grid) == len(whole) - cut, (points, kind)
            assert np.array_equal(grid, whole[: len(grid)]), (points, kind)
            assert grid[-1] <= top, (points, kind)
            assert np.isfinite(analytic_curve(kind, params, grid).n).all(), (points, kind)


@pytest.mark.parametrize("points", [7, 19, 21, 27, 43, 333, 1_000, 20_000, 33_333])
def test_volatility_grid_is_a_prefix_of_the_momentum_grid(points):
    # curves writes the volatility levels as a slice of the momentum levels' text
    step = 1.0 / points
    vol, mom = default_grid("volatility", step), default_grid("momentum_plus", step)
    assert len(vol) < len(mom)
    assert np.array_equal(vol.view(np.uint64), mom[: len(vol)].view(np.uint64))
