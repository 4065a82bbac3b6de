"""Panel simulation, cohort sorting, and realized excess measurement."""

import csv
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, logit

from rnemarket.anomalies import AnomalyParams, analytic_curve, occupancy_density
from rnemarket.inference import InferenceParams, InputError
from rnemarket.market import (
    ASSET_BLOCK,
    MarketPanel,
    ResourceLimitError,
    cohort_table,
    expost_decomposition,
    make_config,
    measure_expost_excess,
    odds_deviation,
    priced_martingale_z,
    reference_martingale_z,
    simulate_blocks,
    sort_cohorts,
    write_cohorts_csv,
    write_panel_csv,
)

from conftest import ACCEPT_SEED, whole_panel
from momentum_bins import bin_averaged_momentum


# whole-panel oracles of market's claim statistics: the odds deviation of
# criterion 1 and the per-column martingale z of criterion 8
def _odds_deviation(p):
    ratio = (p.pi / (1 - p.pi)) / (p.Pi / (1 - p.Pi))
    target = p.config.pricing.K ** p.sign.astype(float)
    return float(np.max(np.abs(ratio / target[:, None] - 1.0)))


def _z(x, target):
    return abs(np.mean(x) - target) / (np.std(x, ddof=1) / math.sqrt(len(x)))


def _reference_zs(p):
    return [_z(p.pi[:, j], p.config.truth.pi1_0) for j in range(len(p.times))]


def _priced_zs(p):
    return [_z(p.Pi[p.sign == s, j], p.config.Pi1_0(s)) for s in (1, -1)
            for j in range(len(p.times))]


def test_panel_identities(small_panel):
    p = small_panel
    cfg = p.config
    # priced odds stay a fixed multiple of the believed odds, per direction
    assert _odds_deviation(p) <= 1e-12
    # beliefs are the exact Bayes update of the reference prior
    want = expit(logit(cfg.truth.pi1_0) + p.loglr)
    assert np.allclose(p.pi, want, rtol=0, atol=1e-12)


def test_outcome_and_sign_frequencies(small_panel):
    p = small_panel
    n = p.n_assets
    frac_b = np.mean(p.B == 1)
    se_b = math.sqrt(0.49 * 0.51 / n)
    assert abs(frac_b - 0.49) <= 3 * se_b
    frac_s = np.mean(p.sign == 1)
    assert abs(frac_s - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_assets_are_independent(small_panel):
    x = small_panel.loglr[0::2, -1]
    y = small_panel.loglr[1::2, -1]
    m = min(len(x), len(y))
    r = np.corrcoef(x[:m], y[:m])[0, 1]
    assert abs(r) <= 3 / math.sqrt(m)


@pytest.mark.parametrize("measure, claim, oracle", [
    ("truth", odds_deviation, _odds_deviation),
    ("reference", reference_martingale_z, lambda p: max(_reference_zs(p))),
    ("rne", priced_martingale_z, lambda p: max(_priced_zs(p))),
], ids=["odds", "reference", "priced"])
def test_panel_claims_read_every_block(measure, claim, oracle):
    # two blocks, the second one asset short of full: a second block of one
    # asset holds neither the largest odds deviation nor, at this seed, the
    # sign group of the worst priced z, so reading the first block alone would pass
    cfg = make_config(n_assets=2 * ASSET_BLOCK - 1, b_measure=measure)
    assert claim(cfg, ACCEPT_SEED) == oracle(whole_panel(cfg, ACCEPT_SEED))


def test_priced_levels_follow_the_schedule_law():
    # the signal-to-noise drops from 0.5 to 0.2 at t = 1, so l_2.4 carries the
    # variance V built up over [0, 2.4): the analytic density of logit(Pi_2.4)
    # at sigma_l_total(2.4) = sqrt(V / 2.4) must match the panel bin by bin
    t = 2.4
    inf = InferenceParams(schedule=((1.0, 0.0, 0.2),))
    var_z, var_d = inf.interval_variances(inf.path_grid([t])[0])
    V = var_z.sum() + var_d.sum()
    sigma_l = inf.sigma_l_total(t)
    assert abs(sigma_l**2 * t - V) <= 1e-12
    cfg = make_config(n_assets=40_000, inference=inf, record_times=(t,), sign_prob_plus=1.0)
    x = logit(whole_panel(cfg, ACCEPT_SEED).Pi[:, 0])
    params = AnomalyParams.from_primitives(cfg.truth.p1_0, cfg.truth.rho, cfg.pricing.K,
                                           sigma_l, t)

    def density(y):  # of logit(Pi_t), from that of Pi_t
        v = expit(y)
        return occupancy_density(v, 1, params) * v * (1 - v)

    center = logit(cfg.truth.pi1_0) - math.log(cfg.pricing.K)
    edges = center + math.sqrt(V) * np.linspace(-2.5, 2.5, 11)
    counts = np.histogram(x, edges)[0]
    for a, b, count in zip(edges[:-1], edges[1:], counts):
        mass = quad(density, a, b)[0]
        se = math.sqrt(len(x) * mass * (1 - mass))
        assert abs(count - len(x) * mass) <= 3 * se, (a, b, count, len(x) * mass)


def _toy_panel(Pi_col, sign=None):
    cfg = make_config(n_assets=len(Pi_col), record_times=(1.0,))
    Pi = np.asarray(Pi_col, float)[:, None]
    sign = np.ones(len(Pi), np.int8) if sign is None else np.asarray(sign, np.int8)
    zeros = np.zeros_like(Pi)
    return MarketPanel(
        config=cfg, seed=0, times=np.array([1.0]),
        B=np.zeros(len(Pi), np.int8), sign=sign,
        loglr=zeros, pi=Pi.copy(), Pi=Pi, S=zeros,
    )


def test_volatility_sort_folds_high_and_low_sides_together():
    panel = _toy_panel([0.12, 0.88, 0.31, 0.69, 0.5], sign=[1, -1, 1, -1, 1])
    sort = sort_cohorts(panel, 1.0, conditioning="volatility")
    assert len(sort.edges) == panel.config.n_bins // 2 + 1
    bin_index, side = sort.code >> 3, sort.code >> 2 & 1
    assert bin_index[0] == bin_index[1]
    assert bin_index[2] == bin_index[3]
    assert list(side) == [0, 1, 0, 1, 0]
    S_delta = panel.config.pricing.S_delta
    curve = measure_expost_excess(sort, cohort_table(sort), S_delta)["volatility"]
    assert curve.n.sum() == 5  # empty bins kept, occupied ones counted
    assert np.count_nonzero(curve.n) == 3


def test_pi_level_sort_splits_by_direction():
    panel = _toy_panel([0.12, 0.88, 0.31, 0.69], sign=[1, -1, 1, -1])
    sort = sort_cohorts(panel, 1.0, conditioning="pi_level")
    assert len(sort.edges) == panel.config.n_bins + 1
    measured = measure_expost_excess(sort, cohort_table(sort), panel.config.pricing.S_delta)
    assert measured["momentum_plus"].n.sum() == 2
    assert measured["momentum_minus"].n.sum() == 2
    with pytest.raises(InputError):
        sort_cohorts(panel, 1.0, conditioning="bogus")
    with pytest.raises(InputError):
        sort_cohorts(panel, 0.7)  # not a recorded epoch


def test_a_one_epoch_panel_answers_for_its_own_epoch_only():
    cfg = make_config(n_assets=200)
    panel = whole_panel(cfg, 3, epochs=[1])
    full = whole_panel(cfg, 3)
    t = cfg.record_times[1]
    assert np.array_equal(sort_cohorts(panel, t).code, sort_cohorts(full, t).code)
    assert expost_decomposition([panel], t) == expost_decomposition([full], t)
    other = cfg.record_times[2]  # recorded by the config, not kept by the panel
    for lookup in (sort_cohorts, lambda p, t: expost_decomposition([p], t)):
        with pytest.raises(InputError, match="is not a recorded epoch") as err:
            lookup(panel, other)
        assert err.value.fields == ("t",)


@pytest.mark.parametrize("epochs", [[4], [-1], [], [0, 0], [0.0], [True], 1, [[0]]])
def test_bad_epochs_are_rejected_before_simulating(epochs):
    # a step budget of 1 would stop any simulation with a ResourceLimitError
    cfg = make_config(n_assets=200, max_asset_steps=1)
    assert len(cfg.record_times) == 4
    with pytest.raises(InputError, match="epochs") as err:
        simulate_blocks(cfg, 3, epochs=epochs)
    assert err.value.fields == ("epochs",)


def test_momentum_cohorts_match_prediction(small_panel):
    t = 2.4
    cfg = small_panel.config
    pars = AnomalyParams.from_primitives(
        cfg.truth.p1_0, cfg.truth.rho, cfg.pricing.K,
        cfg.inference.sigma_at(0.0)[1], t, cfg.pricing.S_delta,
    )
    sort = sort_cohorts(small_panel, t, conditioning="pi_level")
    measured = measure_expost_excess(sort, cohort_table(sort), cfg.pricing.S_delta)
    for kind, sign in (("momentum_plus", 1), ("momentum_minus", -1)):
        c = measured[kind]
        _, rp_pred, _ = bin_averaged_momentum(sort.edges, sign, pars)
        ok = c.n >= 200
        assert ok.sum() >= 5, kind
        z = np.abs(c.rp[ok] - rp_pred[ok]) / c.se[ok]
        assert float(z.max()) <= 3.0, (kind, float(z.max()))


def test_volatility_cohorts_match_prediction_when_unbiased():
    cfg = make_config(n_assets=20_000, rho=1.0)
    panel = whole_panel(cfg, ACCEPT_SEED)
    t = 2.4
    pars = AnomalyParams.from_primitives(
        cfg.truth.p1_0, 1.0, cfg.pricing.K,
        cfg.inference.sigma_at(0.0)[1], t, cfg.pricing.S_delta,
    )
    sort = sort_cohorts(panel, t, conditioning="volatility")
    measured = measure_expost_excess(sort, cohort_table(sort), cfg.pricing.S_delta)[
        "volatility"]
    ana = analytic_curve("volatility", pars)
    # aggregate the analytic curve onto the cohort bins, occupancy weighted
    which = np.clip(np.searchsorted(sort.edges, ana.v, side="right") - 1, 0,
                    len(measured.v) - 1)
    ok = measured.n >= 400
    assert ok.sum() >= 5
    for b in np.nonzero(ok)[0]:
        sel = which == b
        pred = float(np.average(ana.rp[sel], weights=ana.n[sel]))
        slack = 3 * measured.se[b] + 0.002
        assert abs(measured.rp[b] - pred) <= slack, (b, measured.rp[b], pred)


def test_decomposition_reconciles(small_panel):
    out = expost_decomposition([small_panel], 2.4)
    for scope, rec in out.items():
        gap = rec["total_drift"] - (rec["priced_part"] + rec["bias_part"] + rec["residual"])
        assert abs(gap) <= 1e-12, scope
    # with a fifty-fifty sign mix the bias legs offset in the pooled scope:
    # each direction group shows it at full strength
    plus = out["plus"]
    assert plus["priced_part"] > 3 * plus["priced_part_se"]
    assert plus["bias_part"] > 3 * plus["bias_part_se"]
    assert abs(plus["residual"]) <= 3 * plus["residual_se"]


def test_decomposition_legs_vanish_without_their_cause():
    p_unbiased = whole_panel(make_config(n_assets=4000, rho=1.0), 5)
    rec = expost_decomposition([p_unbiased], 2.4)["all"]
    assert rec["bias_part"] == pytest.approx(0.0, abs=1e-14)
    p_unpriced = whole_panel(make_config(n_assets=4000, K=1.0), 5)
    rec = expost_decomposition([p_unpriced], 2.4)["all"]
    assert rec["priced_part"] == pytest.approx(0.0, abs=1e-14)


def test_panel_csv_round_trip(tmp_path):
    cfg = make_config(n_assets=5)
    panel = whole_panel(cfg, 3)
    path = tmp_path / "panel.csv"
    write_panel_csv(path, panel)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["asset_id", "t", "pi", "Pi", "S", "B", "sign"]
    assert len(rows) == 1 + 5 * len(panel.times)
    r = rows[1 + 2 * len(panel.times)]  # first row of asset 2
    assert int(r[0]) == 2
    assert float(r[1]) == panel.times[0]
    assert float(r[2]) == panel.pi[2, 0]  # 17 digits round-trip exactly
    assert float(r[3]) == panel.Pi[2, 0]
    assert float(r[4]) == panel.S[2, 0]
    assert int(r[5]) == panel.B[2] and int(r[6]) == panel.sign[2]


def test_cohorts_csv_appends_epochs(tmp_path, small_panel):
    path = tmp_path / "cohorts.csv"
    sorts = [sort_cohorts(small_panel, t) for t in (1.2, 2.4)]
    S_delta = small_panel.config.pricing.S_delta
    first, second = (measure_expost_excess(s, cohort_table(s), S_delta) for s in sorts)
    write_cohorts_csv(path, first, 1.2)
    write_cohorts_csv(path, second, 2.4, append=True)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "kind", "v_bin", "rp", "se", "n", "mix_ratio"]
    n_bins = len(first["volatility"].v)
    assert len(rows) == 1 + 2 * n_bins
    assert {float(r[0]) for r in rows[1:]} == {1.2, 2.4}
    c = first["volatility"]
    assert float(rows[1][2]) == c.v[0]
    j0 = int(np.nonzero(c.n > 0)[0][0])
    assert float(rows[1 + j0][6]) == c.mix[j0]


def test_step_budget_is_enforced():
    cfg = make_config(n_assets=1000, max_asset_steps=100)
    with pytest.raises(ResourceLimitError):
        simulate_blocks(cfg, 1)


def test_config_validation():
    with pytest.raises(InputError):
        make_config(b_measure="priced")
    with pytest.raises(InputError):
        make_config(record_times=(0.6, 12.0))  # beyond the horizon
    with pytest.raises(InputError):
        make_config(record_times=(2.4, 1.2))
    with pytest.raises(InputError):
        make_config(p1_0=1.2)
