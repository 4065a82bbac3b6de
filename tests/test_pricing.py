"""Canonical pricing map: conservation, premium anatomy, SDE consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from rnemarket.inference import InferenceParams, InputError
from rnemarket.pricing import (
    PricingParams,
    canonical_price,
    diffusion_price_of_risk,
    implied_gain_to_loss,
    premium_decomposition,
    price_of_model_risk,
    rne_belief,
    simulate_price_path,
    verify_canonical_ode,
    write_price_paths_csv,
)

K_GRID = (1.0, 1.2, 1.5, 1.9)


def test_rne_belief_spot_values():
    assert rne_belief(0.5, 1.5, 1) == pytest.approx(0.4, abs=1e-15)
    assert rne_belief(0.4, 1.5, -1) == pytest.approx(0.5, abs=1e-15)
    assert rne_belief(0.3, 1.0, 1) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(InputError):
        rne_belief(0.5, 0.8, 1)
    with pytest.raises(InputError):
        rne_belief(0.5, 1.5, 0)


# kept away from the endpoints: near them 1 - Pi itself loses digits, which
# is a float representation limit, not a property of the map
@given(
    pi=st.floats(1e-4, 1 - 1e-4),
    K=st.floats(1.0, 50.0),
    sign=st.sampled_from([1, -1]),
)
def test_odds_ratio_is_conserved(pi, K, sign):
    Pi = rne_belief(pi, K, sign)
    lhs = (pi / (1 - pi)) / (Pi / (1 - Pi))
    assert lhs == pytest.approx(K**sign, rel=1e-9)


@given(pi=st.floats(1e-4, 1 - 1e-4), K=st.floats(1.0, 50.0))
def test_gain_to_loss_equals_K_everywhere(pi, K):
    Pi = rne_belief(pi, K, 1)
    assert implied_gain_to_loss(pi, Pi) == pytest.approx(K, rel=1e-9)


def test_peak_risk_calibration_at_half():
    # the premium coefficient and the implied gain-to-loss at pi = 1/2,
    # where belief volatility sqrt(pi(1-pi)) tops out at 1/2
    for K in K_GRID:
        A = rne_belief(0.5, K, 1)
        dec = premium_decomposition(0.5, A, 1.0)
        assert dec.price_of_model_risk == pytest.approx((K - 1) / (K + 1), abs=1e-12)
        assert implied_gain_to_loss(0.5, A) == pytest.approx(K, abs=1e-12)
        assert dec.model_part == pytest.approx((K - 1) / (2 * (K + 1)), abs=1e-12)


def test_price_of_model_risk_shape():
    for K in K_GRID:
        target = (math.sqrt(K) - 1 / math.sqrt(K)) * 0.5
        assert price_of_model_risk(0.5, K) == pytest.approx(target, abs=1e-14)
    assert price_of_model_risk(0.5, 1.0) == 0.0
    # symmetric in Pi around 1/2 and vanishing at the edges
    assert price_of_model_risk(0.2, 1.5) == pytest.approx(price_of_model_risk(0.8, 1.5), abs=1e-14)


def test_canonical_price_assembly():
    assert canonical_price(0.0, 1.0, 0.4, 0.05) == pytest.approx(0.35, abs=1e-15)
    assert canonical_price(2.0, 3.0, 0.5) == pytest.approx(3.5, abs=1e-15)


def test_premium_decomposition_reconciles_with_truth():
    dec = premium_decomposition(0.6, rne_belief(0.6, 1.5, 1), 2.0, true_p=0.55)
    # ex-post drift gap = model premium + estimation gap of the holder
    assert dec.expost_gap == pytest.approx(dec.model_part + (0.55 - 0.6) * 2.0, abs=1e-14)


def test_pricing_params_validation():
    with pytest.raises(InputError):
        PricingParams(K=0.5)
    with pytest.raises(InputError):
        PricingParams(S_delta=0.0)
    with pytest.raises(InputError):
        PricingParams(rZ_delta=0.2, t_max=10.0, S_delta=1.0)  # underlier gap closes


@pytest.mark.parametrize("kw, field", [
    ({"pi0": 0.0}, "pi0"), ({"pi0": 1.0}, "pi0"), ({"pi0": -0.5}, "pi0"),
    ({"sign_change": 0}, "sign_change"), ({"sign_change": 2}, "sign_change"),
])
def test_price_path_rejects_a_prior_or_sign_out_of_range(kw, field):
    # the prior and the sign are the path's own arguments, not pricing constants
    with pytest.raises(InputError) as err:
        simulate_price_path(InferenceParams(), PricingParams(), 1, seed=0, **kw)
    assert err.value.fields == (field,)


def test_consistency_check_ties_anchor_noise_to_inference():
    pr = PricingParams(rZ_delta=0.05, sigma_Z=0.1)
    pr.check_consistent(InferenceParams(sigma_lZ=0.5, sigma_lD=0.3))
    with pytest.raises(InputError):
        pr.check_consistent(InferenceParams(sigma_lZ=0.4, sigma_lD=0.3))


def test_dense_path_price_moves_split_into_sure_bsure_and_model_parts():
    inf = InferenceParams(sigma_lZ=0.5, sigma_lD=0.0)
    pr = PricingParams(K=1.5, rZ_delta=0.05, sigma_Z=0.1, bsure_premium_drift=0.01)
    run = simulate_price_path(inf, pr, 1, seed=3)
    dt = np.diff(run.t)
    n = len(dt)
    # the path draws the D-stream normals of every step, then the Z-stream's
    z_z = np.random.default_rng(3).standard_normal(2 * n)[n:]
    # b = 1 with a value-raising change: the up branch is realized, and the
    # anchor earns rZ_delta on top of the Z noise
    dy = pr.sigma_Z * np.sqrt(dt) * z_z + pr.rZ_delta * dt
    y = pr.y_minus0 + np.concatenate([[0.0], np.cumsum(dy)])
    expected = canonical_price(y, pr.s_delta_at(run.t), run.Pi, pr.premium_to_go(run.t))
    assert np.max(np.abs(run.S - expected)) <= 1e-12
    # sure-value, b-sure and model parts of each move, with Pi_up = Pi
    sd = pr.s_delta_at(run.t)
    ori = pr.bsure_premium_drift * dt + pr.sigma_Z * np.sqrt(dt) * z_z
    bsure = (1.0 - run.Pi[:-1]) * pr.rZ_delta * dt
    model = np.diff(sd * run.Pi) + run.Pi[:-1] * pr.rZ_delta * dt
    assert np.max(np.abs(ori + bsure + model - np.diff(run.S))) <= 1e-12


def test_price_path_determinism_and_canonical_consistency():
    inf = InferenceParams(dt=0.01, t_max=2.0)
    pr = PricingParams(K=1.5)
    a = simulate_price_path(inf, pr, 1, seed=17)
    b = simulate_price_path(inf, pr, 1, seed=17)
    assert np.array_equal(a.S, b.S)
    # S is the canonical assembly at every step
    S_expected = np.array([
        canonical_price(0.0, pr.S_delta, Pi_up, 0.0)
        for Pi_up in (a.Pi if a.sign_change == 1 else 1 - a.Pi)
    ])
    assert np.allclose(a.S, S_expected, atol=1e-12)
    # conserved odds along the whole path
    dev = np.abs((a.pi / (1 - a.pi)) / (a.Pi / (1 - a.Pi)) / pr.K - 1)
    assert np.max(dev) < 1e-12


def test_price_path_jump_mode_hits_record_times():
    inf = InferenceParams(t_max=10.0)
    pr = PricingParams(K=1.2)
    run = simulate_price_path(inf, pr, 0, seed=5, record_times=[0.6, 2.4, 8.0])
    assert np.array_equal(run.t, [0.6, 2.4, 8.0])


def test_record_times_past_either_horizon_are_rejected():
    # the path's horizon is the inference one or the pricing one, whichever
    # ends first; past the pricing horizon premium_to_go would turn negative
    for inf, pr in ((InferenceParams(t_max=1.0), PricingParams()),
                    (InferenceParams(), PricingParams(t_max=1.0))):
        with pytest.raises(InputError, match="horizon"):
            simulate_price_path(inf, pr, 1, 0, record_times=[2.0])
        run = simulate_price_path(inf, pr, 1, 0, record_times=[0.5, 1.0])
        assert np.array_equal(run.t, [0.5, 1.0])


def test_dense_path_draws_z_when_only_the_last_step_carries_it():
    # the Z-stream switches on at 9.995, inside the last dt step [9.99, 10]:
    # the grid splits that step there, and its [9.995, 10] sub-step has
    # Z-variance 0.25 * 0.005, so the step's increment needs Z noise
    inf = InferenceParams(schedule=((9.995, 0.5, 0.5),))
    run = simulate_price_path(inf, PricingParams(), 1, seed=4)
    times, cols = inf.path_grid()
    assert np.array_equal(times[cols], run.t) and times[-2] == 9.995
    var_z, var_d = inf.interval_variances(times)
    assert var_z[-1] == pytest.approx(0.00125, rel=1e-9) and not var_z[:-1].any()
    z_d, z_z = np.random.default_rng(4).standard_normal((2, len(var_d)))
    want = (var_z + var_d) / 2 + np.sqrt(var_d) * z_d + np.sqrt(var_z) * z_z
    assert run.loglr[-1] - run.loglr[-2] == pytest.approx(want[-2:].sum(), abs=1e-12)


def test_dense_grid_stops_at_the_last_step_not_past_the_horizon():
    # 10 / 0.6 is 16.7 steps: the dense path ends at 9.6, where S_delta
    # still decays to a positive gap, not at 10.2 past the horizon
    pr = PricingParams(rZ_delta=0.0999)
    run = simulate_price_path(InferenceParams(dt=0.6), pr, 1, seed=3)
    assert len(run.t) == 17 and run.t[-1] == pytest.approx(9.6, abs=1e-12)
    assert pr.s_delta_at(run.t[-1]) > 0
    # a quotient that rounds just below a whole step count keeps that step
    assert len(InferenceParams().path_grid()[0]) == 1001
    assert 0.3 / 0.1 < 3 and len(InferenceParams(dt=0.1, t_max=0.3).path_grid()[0]) == 4


def test_ensemble_drift_matches_diffusion_price_of_risk():
    # one short step from a common start under the holder's own measure:
    # E[dS]/dt should land on the model-risk drift mu
    K, S_delta, sigma_l, dt, n = 1.5, 1.0, 0.5, 0.05, 400_000
    pi0 = 0.3
    Pi0 = rne_belief(pi0, K, 1)
    ref = diffusion_price_of_risk(Pi0, pi0, sigma_l, K, S_delta)
    rng = np.random.default_rng(42)
    b = rng.random(n) < pi0
    drift = np.where(b, 1.0, -1.0) * sigma_l**2 / 2 * dt
    l = drift + sigma_l * math.sqrt(dt) * rng.standard_normal(n)
    pi1 = expit(logit(pi0) + l)
    Pi1 = expit(logit(pi1) - math.log(K))
    dS = (Pi1 - Pi0) * S_delta
    se = dS.std(ddof=1) / math.sqrt(n)
    # 3 SE for sampling noise plus a small O(dt) discretization allowance
    assert abs(dS.mean() / dt - ref["mu"]) * dt <= 3 * se + 0.05 * ref["mu"] * dt
    # and the realized volatility matches sigma to a few percent
    assert dS.std(ddof=1) / math.sqrt(dt) == pytest.approx(ref["sigma"], rel=0.05)


def test_capm_style_linearization_error_is_second_order():
    # capm_approx linearizes the drift-to-volatility ratio in (K-1); the
    # gap to the exact ratio must shrink linearly as K -> 1
    sigma_l = 0.5
    gaps = []
    for eps in (0.2, 0.02):
        K = 1 + eps
        pi = 0.5
        Pi = rne_belief(pi, K, 1)
        ref = diffusion_price_of_risk(Pi, pi, sigma_l, K, 1.0)
        gaps.append(abs(ref["capm_approx"] / ref["mu_over_sigma"] - 1.0))
    assert gaps[1] < gaps[0] / 5
    assert gaps[1] < 0.02


def test_canonical_ode_residuals():
    grid = np.linspace(0.05, 0.95, 19)
    for K in (1.2, 1.5, 1.9):
        assert verify_canonical_ode(grid, lambda p, K=K: rne_belief(p, K, 1)) < 1e-6
        assert verify_canonical_ode(grid, lambda p, K=K: rne_belief(p, K, -1)) < 1e-6
    assert verify_canonical_ode(grid, lambda p: p * p) > 0.05
    with pytest.raises(InputError):
        verify_canonical_ode(np.array([0.00005, 0.5]), lambda p: p)


def test_write_price_paths_csv_header(tmp_path):
    inf = InferenceParams(dt=0.5, t_max=1.0)
    run = simulate_price_path(inf, PricingParams(), 1, seed=1)
    out = tmp_path / "p.csv"
    write_price_paths_csv(out, [run])
    assert out.read_text().splitlines()[0] == "path_id,t,pi,Pi,S,k_pi,B,sign"
