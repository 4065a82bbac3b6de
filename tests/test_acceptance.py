"""End-to-end acceptance checks, one criterion per test.

Each test records a single CRITERION line; the conftest summary hook echoes
the scoreboard after the run. Tolerances are part of the package contract:
exact algebra at 1e-12, analytic grids at 1e-3, Monte Carlo at 3 standard
errors on the pinned seed.
"""

import filecmp
import math
import time

import numpy as np
from scipy.stats import kstest

from rnemarket.anomalies import AnomalyParams, peak_report
from rnemarket.cli import main
from rnemarket.estimation import roundtrip
from rnemarket.inference import Milestones
from rnemarket.market import (
    cohort_table,
    make_config,
    measure_expost_excess,
    odds_deviation,
    priced_martingale_z,
    reference_martingale_z,
    sort_cohorts,
)
from rnemarket.pricing import half_vol_gaps, ode_residuals

from conftest import ACCEPT_SEED, CRITERION_LINES
from momentum_bins import bin_averaged_momentum


def check(k: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {k:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    CRITERION_LINES.append((k, line))
    print(line)
    assert ok, line


def _params(rho=9.0, K=1.5, t=2.4):
    return AnomalyParams.from_primitives(0.49, rho, K, 0.5, t)


def test_criterion_1_conserved_odds_on_a_dense_panel():
    t0 = time.perf_counter()
    times = tuple(np.linspace(0.008, 8.0, 1000))
    dev = odds_deviation(make_config(n_assets=1000, record_times=times), ACCEPT_SEED)
    took = time.perf_counter() - t0
    check(
        1,
        dev <= 1e-12 and took < 30.0,
        f"1e3 paths x 1e3 steps, max relative odds-ratio deviation {dev:.2e} "
        f"(limit 1e-12) in {took:.1f}s",
    )


def test_criterion_2_half_vol_calibration_is_exact():
    worst_k, worst_g = half_vol_gaps((1.0, 1.2, 1.5, 1.9))
    check(
        2,
        worst_k <= 1e-12 and worst_g <= 1e-12,
        f"at half-vol: |k - (K-1)/(K+1)| <= {worst_k:.2e}, "
        f"|gain-to-loss - K| <= {worst_g:.2e} over K in {{1, 1.2, 1.5, 1.9}}",
    )


def test_criterion_3_pricing_map_solves_the_ode():
    r_plus, r_minus, r_quad = ode_residuals(np.linspace(0.05, 0.95, 19), 1.5)
    check(
        3,
        max(r_plus, r_minus) < 1e-6 and r_quad > 0.05,
        f"map residual {max(r_plus, r_minus):.2e} (< 1e-6), "
        f"quadratic non-solution residual {r_quad:.3f} (> 0.05)",
    )


def test_criterion_4_momentum_peaks_match_the_formulas():
    t0 = time.perf_counter()
    pars = _params()
    rep_p = peak_report("momentum_plus", pars, step=1e-3)
    rep_m = peak_report("momentum_minus", pars, step=1e-3)
    took = time.perf_counter() - t0
    gaps = (
        abs(rep_p["v_max"] - 0.2139),
        abs(rep_m["v_max"] - 0.2899),
        abs(rep_p["rp_max"] - 0.5721),
        abs(rep_m["rp_max"] - (-0.4202)),
    )
    check(
        4,
        max(gaps) <= 1e-3 and took < 1.0,
        f"grid peaks ({rep_p['v_max']:.4f}, {rep_p['rp_max']:.4f}) and "
        f"({rep_m['v_max']:.4f}, {rep_m['rp_max']:.4f}) within 1e-3 of the "
        f"closed forms in {took * 1000:.0f}ms",
    )


def test_criterion_5_volatility_peak_location_and_size():
    rep = peak_report("volatility", _params(), step=1e-3)
    ok_loc = abs(rep["v_max"] - 0.1) <= 0.02
    ok_size = abs(rep["rp_max"] - 0.1) <= 0.01
    rep1 = peak_report("volatility", _params(rho=1.0), step=1e-3)
    ok_flat = abs(rep1["v_max"] - 0.5) <= 1e-9 and abs(rep1["rp_max"] - 0.1) <= 1e-9
    check(
        5,
        ok_loc and ok_size and ok_flat,
        f"biased peak ({rep['v_max']:.3f}, {rep['rp_max']:.4f}) vs (0.1, 0.1); "
        f"unbiased boundary peak ({rep1['v_max']:.6f}, {rep1['rp_max']:.6f}) exact",
    )


def test_criterion_6_panel_cohorts_reproduce_the_curves(big_panel):
    t0 = time.perf_counter()
    t = 2.4
    pars = _params(t=t)
    sort_mo = sort_cohorts(big_panel, t, conditioning="pi_level")
    S_delta = big_panel.config.pricing.S_delta
    measured = measure_expost_excess(sort_mo, cohort_table(sort_mo), S_delta)
    worst_z = 0.0
    n_checked = 0
    for kind, sign in (("momentum_plus", 1), ("momentum_minus", -1)):
        c = measured[kind]
        _, rp_pred, _ = bin_averaged_momentum(sort_mo.edges, sign, pars)
        ok = c.n >= 200
        n_checked += int(ok.sum())
        worst_z = max(worst_z, float(np.max(np.abs(c.rp[ok] - rp_pred[ok]) / c.se[ok])))
    sort_vol = sort_cohorts(big_panel, t)
    vol = measure_expost_excess(sort_vol, cohort_table(sort_vol), S_delta)["volatility"]
    occupied = (vol.n >= 200) & np.isfinite(vol.rp)
    peak_center = float(vol.v[occupied][np.argmax(vol.rp[occupied])])
    took = time.perf_counter() - t0
    check(
        6,
        worst_z <= 3.0 and abs(peak_center - 0.1) <= 0.02 and took < 120.0,
        f"momentum bins (n>=200, {n_checked} bins) worst |z| {worst_z:.2f} <= 3; "
        f"volatility peak bin center {peak_center:.2f} within one bin of 0.1; "
        f"{took:.0f}s",
    )


def test_criterion_7_parameters_recover_from_the_panel(big_config):
    res = roundtrip(big_config, ACCEPT_SEED, n_boot=200)
    err_K = abs(res.K_hat - 1.5)
    err_rho = abs(res.rho_hat - 9.0)
    cfg1 = make_config(n_assets=100_000, K=1.0)
    res1 = roundtrip(cfg1, ACCEPT_SEED, n_boot=0)
    check(
        7,
        err_K <= 0.15 and err_rho <= 1.8 and 0.95 <= res1.K_hat <= 1.05,
        f"K_hat {res.K_hat:.3f} (err {err_K / 1.5:.1%} <= 10%), "
        f"rho_hat {res.rho_hat:.3f} (err {err_rho / 9:.1%} <= 20%); "
        f"unpriced panel K_hat {res1.K_hat:.3f} in [0.95, 1.05]",
    )


def test_criterion_8_ensembles_follow_their_laws(big_panel):
    worst_z = max(
        reference_martingale_z(make_config(n_assets=20_000, b_measure="reference"), ACCEPT_SEED),
        priced_martingale_z(make_config(n_assets=20_000, b_measure="rne"), ACCEPT_SEED),
    )

    slz, sld = big_panel.config.inference.sigma_at(0.0)
    var_rate = slz**2 + sld**2
    min_p = 1.0
    min_n = big_panel.n_assets
    for b, sgn in ((1, 1.0), (0, -1.0)):
        sel = big_panel.B == b
        min_n = min(min_n, int(sel.sum()))
        for j, t in enumerate(big_panel.times):
            mu = sgn * var_rate * t / 2.0
            sd = math.sqrt(var_rate * t)
            p = kstest(big_panel.loglr[sel, j], "norm", args=(mu, sd)).pvalue
            min_p = min(min_p, p)
    check(
        8,
        worst_z <= 3.0 and min_p >= 0.01 and min_n >= 10_000,
        f"reference/priced ensemble means worst |z| {worst_z:.2f} <= 3 at every "
        f"checkpoint; belief-level KS min p {min_p:.3f} >= 0.01 on arms of "
        f">= {min_n} paths",
    )


def _top_bin_mix(panel, t, n_floor):
    sort = sort_cohorts(panel, t)
    curve = measure_expost_excess(sort, cohort_table(sort), panel.config.pricing.S_delta)[
        "volatility"]
    ok = (curve.n >= n_floor) & np.isfinite(curve.mix)
    i = int(np.nonzero(ok)[0][-1])
    mix = float(curve.mix[i])
    n_minus = curve.n[i] / (1.0 + mix)
    n_plus = curve.n[i] - n_minus
    se = mix * math.sqrt(1.0 / n_plus + 1.0 / n_minus)
    return float(curve.v[i]), mix, se


def test_criterion_9_sign_mix_is_tilted_then_reverts(big_panel):
    t = 2.4
    m = Milestones.from_params(0.49, 9.0, 1.5, 0.5)
    target = 9.0 ** (-m.t_K / t)
    assert abs(target - 0.05132077339529616) < 1e-12
    v_bin, mix, se = _top_bin_mix(big_panel, t, 200)
    _, mix_late, _ = _top_bin_mix(big_panel, 8.0, 50)
    check(
        9,
        mix < 1.0 and abs(mix - target) <= 3.0 * se and mix_late > mix,
        f"top-vol bin (v={v_bin:.2f}) sign mix {mix:.4f} < 1 and within 3SE "
        f"({3 * se:.4f}) of {target:.4f}; reverts to {mix_late:.3f} by t=8",
    )


def test_criterion_10_outputs_are_thread_invariant(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("market.n_assets = 4000\nseed = 112\n")
    outs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        rc = ["--config", str(cfg), "--out-dir", str(out), "--threads", str(threads)]
        assert main(["simulate", *rc]) == 0
        assert main(["cohorts", *rc]) == 0
        outs.append(out)
    same = all(
        filecmp.cmp(outs[0] / name, other / name, shallow=False)
        for other in outs[1:]
        for name in ("panel.csv", "price_paths.csv", "cohorts.csv")
    )
    check(
        10,
        same,
        "simulate and cohorts artifacts byte-identical across --threads 1/4/8",
    )
