"""cohort_stats against the per-bin reference loop, and its weighting law."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnemarket.estimation import _usable_mask
from rnemarket.market import (
    MarketPanel,
    cohort_stats,
    make_config,
    measure_expost_excess,
    sort_cohorts,
)

KINDS = {"pi_level": ("momentum_plus", "momentum_minus"), "volatility": ("volatility",)}


def _cell_stats(x):
    n = len(x)
    if n == 0:
        return math.nan, math.nan, 0
    m = float(np.mean(x))
    var = float(np.var(x, ddof=1)) / n if n > 1 else math.nan
    return m, var, n


def reference_stats(panel, sort):
    """The per-bin loop that measured cohort curves before cohort_stats.

    Every member is scored as sign*(1_{B=1} - u)*S_delta and the cell mean
    and variance of the mean come from the member values themselves.
    """
    S_delta = panel.config.pricing.S_delta
    b_hit = (panel.B == 1).astype(float)
    centers = 0.5 * (sort.edges[:-1] + sort.edges[1:])
    n_b = len(centers)
    out = {}
    if sort.conditioning == "pi_level":
        for kind, s in (("momentum_plus", 1), ("momentum_minus", -1)):
            rp, se, n = np.full(n_b, np.nan), np.full(n_b, np.nan), np.zeros(n_b)
            for b in range(n_b):
                members = (panel.sign == s) & (sort.bin_index == b)
                m, var, cnt = _cell_stats(s * (b_hit[members] - centers[b]) * S_delta)
                rp[b] = m
                se[b] = math.sqrt(var) if cnt > 1 else math.nan
                n[b] = cnt
            out[kind] = (rp, se, n)
        return out
    rp, se, n = np.full(n_b, np.nan), np.full(n_b, np.nan), np.zeros(n_b)
    for b in range(n_b):
        members = sort.bin_index == b
        n[b] = np.sum(members)
        side_means, side_vars, side_n = [], [], []
        ok = True
        for high in (False, True):
            side = members & (sort.side_high == high)
            if not side.any():
                continue
            u = 1.0 - centers[b] if high else centers[b]
            arm_m, arm_v = [], []
            for s in (1, -1):
                cell = side & (panel.sign == s)
                m, var, cnt = _cell_stats(s * (b_hit[cell] - u) * S_delta)
                ok &= cnt > 0 and np.isfinite(var)
                arm_m.append(m)
                arm_v.append(var)
            side_means.append(0.5 * (arm_m[0] + arm_m[1]))
            side_vars.append(0.25 * (arm_v[0] + arm_v[1]))
            side_n.append(int(side.sum()))
        if side_n and ok:
            w = np.asarray(side_n, float) / float(sum(side_n))
            rp[b] = float(np.dot(w, side_means))
            se[b] = float(math.sqrt(np.dot(w**2, side_vars)))
    out["volatility"] = (rp, se, n)
    return out


def reference_mix(panel, sort):
    """Per-bin sign mix n_plus/n_minus, NaN unless both signs are present."""
    mix = np.full(len(sort.edges) - 1, np.nan)
    for b in range(len(mix)):
        n_plus = int(np.sum(panel.sign[sort.bin_index == b] == 1))
        n_minus = int(np.sum(panel.sign[sort.bin_index == b] == -1))
        if n_plus and n_minus:
            mix[b] = n_plus / n_minus
    return mix


def _assert_close(a, b, tol=1e-12):
    a, b = np.asarray(a, float), np.asarray(b, float)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    ok = ~np.isnan(a)
    assert np.all(np.abs(a[ok] - b[ok]) <= tol), float(np.max(np.abs(a[ok] - b[ok])))


def _check_against_reference(panel, sort):
    ref = reference_stats(panel, sort)
    got = cohort_stats(panel, sort)
    measured = measure_expost_excess(panel, sort)
    assert set(got) == set(ref) == set(measured) == set(KINDS[sort.conditioning])
    for kind, (rp, se, n) in ref.items():
        for stats in (got[kind], (measured[kind].rp, measured[kind].se, measured[kind].n)):
            _assert_close(stats[0], rp)
            _assert_close(stats[1], se)
            assert np.array_equal(stats[2], n)
        assert np.array_equal(measured[kind].mix, reference_mix(panel, sort), equal_nan=True)


def _toy_panel(Pi, B, sign, n_bins=50):
    cfg = make_config(n_assets=len(Pi), record_times=(1.0,), n_bins=n_bins)
    Pi = np.asarray(Pi, float)[:, None]
    zeros = np.zeros_like(Pi)
    return MarketPanel(
        config=cfg, seed=0, times=np.array([1.0]),
        B=np.asarray(B, np.int8), sign=np.asarray(sign, np.int8),
        loglr=zeros, pi=Pi.copy(), Pi=Pi, S=zeros,
    )


def test_matches_reference_loop_at_every_epoch(small_panel):
    for t in small_panel.times:
        for conditioning in KINDS:
            sort = sort_cohorts(small_panel, t, conditioning=conditioning)
            _check_against_reference(small_panel, sort)
    sort = sort_cohorts(small_panel, 2.4, binning=("quantiles", 10))
    _check_against_reference(small_panel, sort)


def test_matches_reference_loop_on_sparse_toy_panels():
    # empty bins everywhere, one-member cells (0.12 alone in its sign cell),
    # one-sided folds (0.05/0.06 have no high-side partner), full cells
    panels = [
        _toy_panel([0.12, 0.88, 0.31, 0.69, 0.5], [1, 0, 1, 1, 0], [1, -1, 1, -1, 1]),
        _toy_panel(
            [0.05, 0.06, 0.051, 0.055, 0.31, 0.69, 0.311, 0.689, 0.3105, 0.6895],
            [1, 0, 0, 1, 1, 0, 1, 0, 0, 1],
            [1, 1, -1, -1, 1, 1, -1, -1, 1, -1],
        ),
        _toy_panel([0.9, 0.91, 0.92, 0.93], [1, 1, 0, 1], [-1, -1, -1, -1], n_bins=4),
    ]
    for panel in panels:
        for conditioning in KINDS:
            _check_against_reference(panel, sort_cohorts(panel, 1.0, conditioning=conditioning))


def test_unanimous_cell_has_zero_se_and_is_not_usable():
    n = 60
    Pi = np.where(np.arange(n) % 2 == 0, 0.31, 0.69)
    sign = np.where(np.arange(n) % 4 < 2, 1, -1)
    panel = _toy_panel(Pi, np.ones(n), sign)
    for conditioning, kind in (("pi_level", "momentum_plus"), ("volatility", "volatility")):
        sort = sort_cohorts(panel, 1.0, conditioning=conditioning)
        curve = measure_expost_excess(panel, sort)[kind]
        filled = np.nonzero(curve.n > 0)[0]
        assert np.all(curve.se[filled] == 0.0), kind
        assert not _usable_mask(curve, 10)[filled].any(), kind


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.001, 0.999), st.integers(0, 1), st.sampled_from([-1, 1]),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ).filter(lambda rows: sum(r[3] for r in rows) > 0),
    st.sampled_from(["pi_level", "volatility"]),
)
def test_integer_weights_equal_repeated_assets(rows, conditioning):
    Pi, B, sign, w = (np.array(col) for col in zip(*rows))
    panel = _toy_panel(Pi, B, sign, n_bins=6)
    rep = np.repeat(np.arange(len(w)), w)
    repeated = _toy_panel(Pi[rep], B[rep], sign[rep], n_bins=6)
    weighted = cohort_stats(panel, sort_cohorts(panel, 1.0, conditioning=conditioning), w)
    plain = cohort_stats(repeated, sort_cohorts(repeated, 1.0, conditioning=conditioning))
    for kind in KINDS[conditioning]:
        for a, b in zip(weighted[kind], plain[kind]):
            _assert_close(a, b)
