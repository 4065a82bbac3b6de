"""Peak location, parameter recovery, and the simulated round trip."""

import csv
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rnemarket import estimation, market
from rnemarket.anomalies import AnomalyParams, CohortCurve, analytic_curve, lowrisk_peak
from rnemarket.estimation import (
    FLATNESS_CONFIDENCE,
    EstimationResult,
    ShapeError,
    _chi2_sf,
    _estimate,
    _flatness_gate,
    _percentiles,
    _belief_keys,
    _TableBootstrap,
    find_peak,
    format_report,
    recover_params,
    roundtrip,
    write_roundtrip_csv,
)
from rnemarket.inference import InputError
from rnemarket.market import ASSET_BLOCK, cohort_table, make_config, sort_cohorts

from conftest import ACCEPT_SEED, no_child_left, whole_panel


def _curve(v, rp, se=None, n=1000.0):
    v = np.asarray(v, float)
    n_arr = np.full(len(v), float(n))
    se_arr = None if se is None else np.full(len(v), float(se))
    return CohortCurve("volatility", v, np.asarray(rp, float), n_arr, se=se_arr)


def test_find_peak_recovers_an_exact_parabola():
    v = np.linspace(0.05, 0.45, 21)
    rp = 0.12 - 3.0 * (v - 0.17) ** 2
    v_hat, rp_hat, stats = find_peak(_curve(v, rp, se=1e-6))
    assert v_hat == pytest.approx(0.17, abs=1e-10)
    assert rp_hat == pytest.approx(0.12, abs=1e-10)
    assert stats["vertex_in_window"]


def test_find_peak_shape_errors():
    v = np.linspace(0.05, 0.45, 21)
    with pytest.raises(ShapeError, match="monotone"):
        find_peak(_curve(v, 0.3 * v, se=1e-6))
    with pytest.raises(ShapeError, match="flat"):
        find_peak(_curve(v, np.full(len(v), 0.05), se=0.02))
    two_bumps = 0.05 - 2.0 * np.minimum((v - 0.13) ** 2, (v - 0.37) ** 2)
    with pytest.raises(ShapeError, match="multiple peaks"):
        find_peak(_curve(v, two_bumps, se=1e-6))
    with pytest.raises(ShapeError, match="fewer than 5"):
        find_peak(_curve(v[:4], v[:4], se=1e-6))
    # nor is a curve without standard errors (an analytic one)
    with pytest.raises(InputError, match="standard errors"):
        find_peak(_curve(v, 0.12 - 3.0 * (v - 0.17) ** 2))
    # a well-shaped peak of any other kind is not the estimator's input
    for kind in ("momentum_plus", "momentum_minus"):
        peaked = CohortCurve(kind, v, 0.12 - 3.0 * (v - 0.17) ** 2, np.full(len(v), 1000.0))
        with pytest.raises(InputError, match="volatility"):
            find_peak(peaked)


def test_find_peak_error_diagnostics_carry_level_stats():
    v = np.linspace(0.05, 0.45, 21)
    try:
        find_peak(_curve(v, np.full(len(v), 0.05), se=0.02))
    except ShapeError as err:
        assert err.reason == "flat curve"
        assert err.diagnostics["weighted_mean_rp"] == pytest.approx(0.05)
        assert "lcb_v" in err.diagnostics
        assert err.diagnostics["n_usable"] == 21


def test_find_peak_ignores_thin_bins():
    v = np.linspace(0.05, 0.45, 21)
    rp = 0.12 - 3.0 * (v - 0.17) ** 2
    rp[4] = 5.0  # absurd value in a bin below the occupancy floor
    c = _curve(v, rp, se=1e-6)
    c.n[4] = 3
    v_hat, _, _ = find_peak(c, n_min=50)
    assert v_hat == pytest.approx(0.17, abs=1e-6)


def test_find_peak_handles_a_boundary_peak():
    # at rho=1 the analytic curve rises all the way to the fold point and
    # flattens there; that must read as a peak, not a monotone curve
    pars = AnomalyParams.from_primitives(0.49, 1.0, 1.5, 0.5, 2.4)
    exact = analytic_curve("volatility", pars)
    v_hat, rp_hat, _ = find_peak(_curve(exact.v, exact.rp, se=1e-6), n_min=0)
    assert v_hat == pytest.approx(0.5, abs=1e-3)
    assert rp_hat == pytest.approx(0.1, abs=1e-3)


def test_flatness_gate_decides_as_the_chi2_quantile():
    from scipy.special import chdtri

    alpha = 1 - FLATNESS_CONFIDENCE
    # k = 0 is left out: at q equal to the quantile's double the tail is
    # alpha to within rounding, so either side of that zero-width boundary
    # is as right as the other
    ks = [k for k in range(-20, 21) if k]
    for dof in range(1, 400):
        crit = float(chdtri(dof, alpha))
        for k in ks:
            q = crit * (1 + k * 1e-13)
            assert (_chi2_sf(q, dof) > alpha) == (q < crit), (dof, k)


def test_chi2_tail_matches_scipy():
    from scipy.special import chdtrc, chdtri

    for dof in range(1, 400):
        crit = float(chdtri(dof, 1 - FLATNESS_CONFIDENCE))
        for q in (crit / 2, crit, 2 * crit):
            assert _chi2_sf(q, dof) == pytest.approx(float(chdtrc(dof, q)), rel=1e-12, abs=0)
        assert _chi2_sf(0.0, dof) == 1.0
        assert not _chi2_sf(math.inf, dof) > 1 - FLATNESS_CONFIDENCE
    flat, stats = _flatness_gate(np.zeros(25), np.ones(25))
    assert flat and stats["flatness_Q"] == 0.0 and stats["flatness_p"] == 1.0


def test_recover_params_examples():
    assert recover_params(0.5, 0.0, 1.0) == pytest.approx((1.0, 1.0))
    assert recover_params(0.1, 0.1, 1.0) == pytest.approx((9.0, 1.5))
    rho, K = recover_params(0.25, 0.0455, 1.0)
    assert rho == pytest.approx(3.0)
    assert K == pytest.approx(1.2, abs=1e-2)
    # size is read relative to the stake
    assert recover_params(0.1, 0.2, 2.0) == pytest.approx((9.0, 1.5))


def test_recover_params_domain_errors():
    with pytest.raises(InputError):
        recover_params(0.6, 0.1, 1.0)
    with pytest.raises(InputError):
        recover_params(0.0, 0.1, 1.0)
    with pytest.raises(InputError):
        recover_params(0.1, -0.01, 1.0)
    with pytest.raises(InputError):
        recover_params(0.1, 0.5, 1.0)
    with pytest.raises(InputError):
        recover_params(0.1, 0.1, 0.0)


@given(rho=st.floats(1.0, 50.0), K=st.floats(1.0, 3.0), s=st.floats(0.1, 10.0))
def test_recovery_inverts_the_peak_formulas(rho, K, s):
    v, rp = lowrisk_peak(rho, K, s)
    rho_hat, K_hat = recover_params(v, rp, s)
    assert rho_hat == pytest.approx(rho, rel=1e-9)
    assert K_hat == pytest.approx(K, rel=1e-9)


def test_recovery_sees_the_folded_bias_when_below_one():
    # a rho below one peaks at the mirror location, so its reciprocal is
    # what any level-based measurement can identify
    v, rp = lowrisk_peak(0.5, 1.5, 1.0)
    rho_hat, K_hat = recover_params(v, rp, 1.0)
    assert rho_hat == pytest.approx(2.0, rel=1e-12)
    assert K_hat == pytest.approx(1.5, rel=1e-12)


def test_recovery_is_monotone():
    rhos = [recover_params(v, 0.1, 1.0)[0] for v in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    Ks = [recover_params(0.1, r, 1.0)[1] for r in (0.0, 0.1, 0.2, 0.4)]
    assert all(a < b for a, b in zip(Ks, Ks[1:]))


def test_flat_level_falls_back_to_the_unpriced_reading():
    v = np.linspace(0.05, 0.45, 21)
    rng = np.random.default_rng(3)
    noise = _curve(v, rng.normal(0.0, 0.005, len(v)), se=0.005)
    v_hat, rp_hat, _, _, stats, path = _estimate(
        noise, 50, S_delta=1.0, median_level=lambda: 0.12, lenient=False
    )
    assert path == "no_significant_peak"
    assert v_hat == 0.12
    assert 0.0 <= rp_hat <= 0.005


def test_flat_but_significant_level_uses_the_best_lcb_bin():
    v = np.linspace(0.05, 0.45, 21)
    level = _curve(v, np.full(len(v), 0.08), se=0.01)
    v_hat, rp_hat, _, _, stats, path = _estimate(
        level, 50, S_delta=1.0, median_level=lambda: 0.0, lenient=False
    )
    assert path == "peak_shape_unresolved"
    assert rp_hat == pytest.approx(0.08)
    assert 0.05 <= v_hat <= 0.45


def test_significant_shape_defects_propagate_unless_lenient():
    v = np.linspace(0.05, 0.45, 21)
    two_bumps = 0.08 - 1.0 * np.minimum((v - 0.13) ** 2, (v - 0.37) ** 2)
    bumpy = _curve(v, two_bumps, se=1e-4)
    with pytest.raises(ShapeError, match="multiple peaks") as exc:
        _estimate(bumpy, 50, S_delta=1.0, median_level=lambda: 0.1, lenient=False)
    assert exc.value.diagnostics["curve"] is bumpy
    v_hat, rp_hat, _, _, _, path = _estimate(
        bumpy, 50, S_delta=1.0, median_level=lambda: 0.1, lenient=True
    )
    assert path == "no_significant_peak"
    assert v_hat == 0.1


def test_roundtrip_degenerate_unpriced_market():
    cfg = make_config(n_assets=20_000, rho=9.0, K=1.0)
    res = roundtrip(cfg, ACCEPT_SEED, n_boot=0)
    assert 0.95 <= res.K_hat <= 1.05
    assert "no_significant_peak" in res.diagnostics["flags"]
    # location falls back to the prior point; rho is not identified here
    assert 0.05 <= res.v_max_hat <= 0.15


def test_roundtrip_degenerate_unbiased_unpriced_market():
    cfg = make_config(n_assets=20_000, rho=1.0, K=1.0)
    res = roundtrip(cfg, ACCEPT_SEED, n_boot=0)
    assert 0.95 <= res.K_hat <= 1.05
    assert 0.9 <= res.rho_hat <= 1.3
    assert "no_significant_peak" in res.diagnostics["flags"]
    assert "no_in_window_epoch" in res.diagnostics["flags"]


@pytest.mark.parametrize("n_assets", [20_000, 20_001])
def test_unpriced_roundtrip_locates_the_peak_at_the_fold_of_numpy_median(n_assets):
    # even n reads the mean of two order statistics, odd n one
    cfg = make_config(n_assets=n_assets, K=1.0)
    res = roundtrip(cfg, ACCEPT_SEED, n_boot=0)
    assert "no_significant_peak" in res.diagnostics["flags"]
    t = res.diagnostics["t"]
    m = float(np.median(whole_panel(cfg, ACCEPT_SEED).Pi[:, cfg.time_index(t)]))
    assert res.v_max_hat == min(m, 1.0 - m)


def test_roundtrip_flat_topped_boundary_peak():
    cfg = make_config(n_assets=20_000, rho=1.0, K=1.5)
    res = roundtrip(cfg, ACCEPT_SEED, t=1.2, n_boot=0)
    assert "peak_shape_unresolved" in res.diagnostics["flags"]
    assert 1.3 <= res.K_hat <= 1.9


def test_roundtrip_raises_with_curve_attached_when_data_is_too_thin():
    cfg = make_config(n_assets=300)
    with pytest.raises(ShapeError, match="fewer than 5") as exc:
        roundtrip(cfg, 1, n_boot=0)
    assert isinstance(exc.value.diagnostics["curve"], CohortCurve)


def test_errors_shrink_with_panel_size():
    # consistency: across paired seeds, the larger panel wins on median error
    errs = {10_000: [], 100_000: []}
    for seed in range(1, 21):
        for n in errs:
            cfg = make_config(n_assets=n)
            res = roundtrip(cfg, seed, n_boot=0)
            errs[n].append((abs(res.K_hat - 1.5), abs(res.rho_hat - 9.0)))
    for j, name in enumerate(("K", "rho")):
        small = float(np.median([e[j] for e in errs[10_000]]))
        big = float(np.median([e[j] for e in errs[100_000]]))
        assert big <= small, (name, big, small)


def test_roundtrip_memory_grows_with_one_epoch_per_asset(monkeypatch):
    # of the panel the estimate keeps one key per asset, its belief at its
    # epoch and its category, 8 bytes, in one memory mapping that forked
    # children share, beside each process's table of the 200 categories.
    # tracemalloc sees no mapping, so its size is asserted, and the traced
    # heap may grow by one byte per asset: 8 + 1 in all. Holding the
    # one-epoch panel would add 34 bytes per asset.
    # K = 1 takes the fold-median fallback, which reads the middle of the
    # keys, sorted in place
    market._ziggurat_tables()  # built once per process: not part of either run
    sizes, mapping = [], mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *a: sizes.append(a[1]) or mapping(*a))
    for cpus in (1, 2):
        monkeypatch.setattr(market, "_usable_cpus", lambda: cpus)
        for K in (1.5, 1.0):
            # a warm-up run: no first-call import enters either peak
            roundtrip(make_config(K=K, n_assets=5_000), ACCEPT_SEED, n_boot=0)
            peaks = []
            for n in (50_000, 100_000):
                tracemalloc.start()
                try:
                    res = roundtrip(make_config(K=K, n_assets=n), ACCEPT_SEED, n_boot=0)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert sizes[-1] == n * 8 + cpus * 200 * 8, (cpus, K, sizes)
            assert ("no_significant_peak" in res.diagnostics["flags"]) == (K == 1.0)
            heap = (peaks[1] - peaks[0]) / 50_000
            assert heap <= 1, (cpus, K, peaks)
            assert (sizes[-1] - sizes[-2]) / 50_000 + heap <= 8 + 1
    no_child_left()


def _outcome(res) -> tuple:
    """Everything roundtrip returns, as bytes and exact reprs."""
    d = dict(res.diagnostics)
    curve = d.pop("curve")
    return (repr((res.v_max_hat, res.rp_max_hat, res.rho_hat, res.K_hat, d)),
            *(x.tobytes() for x in (curve.v, curve.rp, curve.se, curve.n, curve.mix)))


def _roundtrip_on(monkeypatch, cpus, cfg, seed=ACCEPT_SEED):
    """roundtrip as if the process could use cpus CPUs: (its result, forks tried)."""
    forks, fork = [], os.fork
    with monkeypatch.context() as m:
        m.setattr(market, "_usable_cpus", lambda: cpus)
        m.setattr(os, "fork", lambda: forks.append(1) or fork())
        res = roundtrip(cfg, seed, n_boot=20)
    return res, len(forks)


@pytest.mark.parametrize("n, K", [(10_001, 1.5), (20_001, 1.0)])
def test_roundtrip_gives_the_same_result_on_any_cpu_count(monkeypatch, n, K):
    # 10,001 assets are 3 blocks and 20,001 are 5: procs = min(CPUs, blocks)
    # processes, the parent and procs - 1 children forked once each; K = 1
    # reads the fold median through the keys the children wrote
    cfg = make_config(n_assets=n, K=K)
    runs = {cpus: _roundtrip_on(monkeypatch, cpus, cfg) for cpus in (1, 2, 3, 16)}
    no_child_left()
    blocks = -(-n // ASSET_BLOCK)
    assert [runs[cpus][1] for cpus in runs] == [min(cpus, blocks) - 1 for cpus in runs]
    assert all(_outcome(runs[cpus][0]) == _outcome(runs[1][0]) for cpus in (2, 3, 16))
    assert ("no_significant_peak" in runs[1][0].diagnostics["flags"]) == (K == 1.0)


def _failing_block(monkeypatch, first_id: int) -> None:
    sort = estimation.sort_cohorts

    def failing(block, *args, **kwargs):
        if block.first_id == first_id:
            raise OSError("no memory for this block")
        return sort(block, *args, **kwargs)

    monkeypatch.setattr(estimation, "sort_cohorts", failing)


def test_a_failing_share_fails_roundtrip_and_leaves_no_child(monkeypatch, capfd):
    # with 3 usable CPUs each of 10,001 assets' 3 blocks is one process's:
    # block 2 is the second child's
    cfg = make_config(n_assets=10_001)
    _failing_block(monkeypatch, 2 * ASSET_BLOCK)
    with pytest.raises(RuntimeError, match=r"share 2 of the panel's 3 blocks \(exit 1\) failed"):
        _roundtrip_on(monkeypatch, 3, cfg)
    no_child_left()
    assert "no memory for this block" in capfd.readouterr().err
    # simulated in the one process, the error is the block's own
    with pytest.raises(OSError, match="no memory for this block"):
        _roundtrip_on(monkeypatch, 1, cfg)
    no_child_left()


def test_a_failure_in_the_parents_share_still_reaps_every_roundtrip_child(monkeypatch):
    # block 0 is always the parent's; the children run blocks 1 and 2 to the end
    _failing_block(monkeypatch, 0)
    with pytest.raises(OSError, match="no memory for this block"):
        _roundtrip_on(monkeypatch, 3, make_config(n_assets=10_001))
    no_child_left()


def test_roundtrip_runs_the_shares_no_child_could_be_forked_for(monkeypatch):
    cfg = make_config(n_assets=10_001)
    serial = _outcome(_roundtrip_on(monkeypatch, 1, cfg)[0])

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    # every fork fails, as under a process limit: the parent runs each share
    monkeypatch.setattr(os, "fork", no_fork)
    res, forks = _roundtrip_on(monkeypatch, 3, cfg)
    assert (_outcome(res), forks) == (serial, 2)
    no_child_left()


def test_roundtrip_sorts_its_blocks_into_the_whole_panels_cohorts(monkeypatch):
    # 10,001 assets are two full blocks and a third of 1,809
    cfg = make_config(n_assets=10_001)
    seen = {}
    init = _TableBootstrap.__init__

    def spy(self, keys, table, rng):
        seen.update(keys=keys, table=table)
        init(self, keys, table, rng)

    monkeypatch.setattr(_TableBootstrap, "__init__", spy)
    res = roundtrip(cfg, 5, t=2.4, n_boot=1)
    panel = whole_panel(cfg, 5)
    full = sort_cohorts(panel, 2.4, conditioning="volatility")
    keys = _belief_keys(panel.Pi[:, cfg.time_index(2.4)], full.code)
    assert np.array_equal(seen["keys"], np.sort(keys))
    assert np.array_equal(res.diagnostics["curve"].v, 0.5 * (full.edges[:-1] + full.edges[1:]))
    assert np.array_equal(seen["table"], cohort_table(full))


def test_percentiles_are_numpy_percentile_bit_for_bit():
    # ties, and arrays of one and two values; no array holds both 0.0 and
    # -0.0, which compare equal, so no sort fixes which comes first
    rng = np.random.default_rng(20)
    for k in range(1_500):
        n = (1, 2)[k % 10] if k % 10 < 2 else int(rng.integers(3, 400))
        x = rng.standard_normal(n) * 10.0 ** int(rng.integers(-6, 7))
        if k % 3 == 0:
            x = np.round(x, 1) + 0.0
        elif k % 3 == 1:
            x = rng.integers(1, 5, n) * 0.7
        qs = (2.5, 97.5) if k % 2 else (*rng.uniform(0, 100, 3), 0.0, 50.0, 100.0)
        want = np.percentile(x, list(qs))
        got = np.array(_percentiles(x, qs))
        assert got.tobytes() == want.tobytes(), (n, qs, got, want)


def test_report_and_csv_round_trip(tmp_path):
    cfg = make_config(n_assets=20_000)
    res = roundtrip(cfg, ACCEPT_SEED, n_boot=40)
    text = format_report(res)
    assert f"K_hat={res.K_hat:.6g}" in text
    assert "bootstrap 95% CIs" in text
    assert "rho_hat" in text

    path = tmp_path / "roundtrip.csv"
    write_roundtrip_csv(path, res)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "K_true", "rho_true", "K_hat", "rho_hat", "v_max", "rp_max",
        "K_ci_lo", "K_ci_hi", "rho_ci_lo", "rho_ci_hi", "n_assets", "seed",
    ]
    assert len(rows) == 2
    assert float(rows[1][2]) == res.K_hat
    assert float(rows[1][6]) == res.diagnostics["K_ci"][0]
    assert int(rows[1][10]) == 20_000


def test_one_row_writer_prints_a_top_seed_and_nan_intervals(tmp_path):
    res = EstimationResult(
        v_max_hat=0.1, rp_max_hat=0.05, rho_hat=9.0, K_hat=1.5,
        diagnostics={"K_true": 1.5, "rho_true": 9.0, "n_assets": 1000, "seed": 2**64 - 1},
    )
    path = tmp_path / "estimate.csv"
    write_roundtrip_csv(path, res)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    (row,) = rows
    assert row["seed"] == "18446744073709551615"
    for key in ("K_ci_lo", "K_ci_hi", "rho_ci_lo", "rho_ci_hi"):
        assert row[key] == "nan"
    assert float(row["K_hat"]) == 1.5
