"""The cohort table's statistics against the per-bin reference loop, and its weighting law."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

from rnemarket import estimation
from rnemarket.estimation import _TableBootstrap, _belief_groups, _usable_mask
from rnemarket.market import (
    MarketPanel,
    cohort_table,
    make_config,
    measure_expost_excess,
    sort_cohorts,
    table_stats,
)

KINDS = {"pi_level": ("momentum_plus", "momentum_minus"), "volatility": ("volatility",)}


def _cell_stats(x):
    n = len(x)
    if n == 0:
        return math.nan, math.nan, 0
    m = float(np.mean(x))
    var = float(np.var(x, ddof=1)) / n if n > 1 else math.nan
    return m, var, n


def _bins_and_sides(sort):
    """Each asset's bin and fold side (1 high), read from its category code."""
    return sort.code >> 3, sort.code >> 2 & 1


def reference_stats(panel, sort):
    """The per-bin loop that measured cohort curves before the category table.

    Every member is scored as sign*(1_{B=1} - u)*S_delta and the cell mean
    and variance of the mean come from the member values themselves.
    """
    S_delta = panel.config.pricing.S_delta
    b_hit = (panel.B == 1).astype(float)
    centers = 0.5 * (sort.edges[:-1] + sort.edges[1:])
    n_b = len(centers)
    bin_index, side_high = _bins_and_sides(sort)
    out = {}
    if sort.conditioning == "pi_level":
        for kind, s in (("momentum_plus", 1), ("momentum_minus", -1)):
            rp, se, n = np.full(n_b, np.nan), np.full(n_b, np.nan), np.zeros(n_b)
            for b in range(n_b):
                members = (panel.sign == s) & (bin_index == b)
                m, var, cnt = _cell_stats(s * (b_hit[members] - centers[b]) * S_delta)
                rp[b] = m
                se[b] = math.sqrt(var) if cnt > 1 else math.nan
                n[b] = cnt
            out[kind] = (rp, se, n)
        return out
    rp, se, n = np.full(n_b, np.nan), np.full(n_b, np.nan), np.zeros(n_b)
    for b in range(n_b):
        members = bin_index == b
        n[b] = np.sum(members)
        side_means, side_vars, side_n = [], [], []
        ok = True
        for high in (False, True):
            side = members & (side_high == high)
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
    bin_index, _ = _bins_and_sides(sort)
    for b in range(len(mix)):
        n_plus = int(np.sum(panel.sign[bin_index == b] == 1))
        n_minus = int(np.sum(panel.sign[bin_index == b] == -1))
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
    got = table_stats(sort, cohort_table(sort), panel.config.pricing.S_delta)
    measured = measure_expost_excess(sort, cohort_table(sort), panel.config.pricing.S_delta)
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
        curve = measure_expost_excess(sort, cohort_table(sort), panel.config.pricing.S_delta)[kind]
        filled = np.nonzero(curve.n > 0)[0]
        assert np.all(curve.se[filled] == 0.0), kind
        assert not _usable_mask(curve, 10)[filled].any(), kind


_WEIGHTED_ROWS = st.lists(
    st.tuples(
        st.floats(0.001, 0.999), st.integers(0, 1), st.sampled_from([-1, 1]),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=40,
).filter(lambda rows: sum(r[3] for r in rows) > 0)


@settings(max_examples=60, deadline=None)
@given(_WEIGHTED_ROWS, st.sampled_from(["pi_level", "volatility"]))
def test_integer_weights_equal_repeated_assets(rows, conditioning):
    Pi, B, sign, w = (np.array(col) for col in zip(*rows))
    panel = _toy_panel(Pi, B, sign, n_bins=6)
    rep = np.repeat(np.arange(len(w)), w)
    repeated = _toy_panel(Pi[rep], B[rep], sign[rep], n_bins=6)
    S_delta = panel.config.pricing.S_delta
    sort = sort_cohorts(panel, 1.0, conditioning=conditioning)
    weighted = table_stats(sort, cohort_table(sort, w), S_delta)
    sort = sort_cohorts(repeated, 1.0, conditioning=conditioning)
    plain = table_stats(sort, cohort_table(sort), S_delta)
    for kind in KINDS[conditioning]:
        for a, b in zip(weighted[kind], plain[kind]):
            _assert_close(a, b)


def _fold_median_weighted(vals, order, w):
    """The asset-level bootstrap median: fold of the w-weighted median, order = argsort(vals)."""
    cum = np.cumsum(w[order])
    med = float(vals[order[np.searchsorted(cum, cum[-1] / 2.0)]])
    return min(med, 1.0 - med)


def _loop_table(panel, sort, w):
    """Integer category table summed asset by asset: [bin, fold side, plus sign, hit]."""
    table = np.zeros((len(sort.edges) - 1, 2, 2, 2), np.int64)
    bin_index, side_high = _bins_and_sides(sort)
    for i, wi in enumerate(w):
        table[bin_index[i], side_high[i], int(panel.sign[i] == 1), int(panel.B[i] == 1)] += wi
    return table


@settings(max_examples=80, deadline=None)
@given(_WEIGHTED_ROWS, st.sampled_from(["pi_level", "volatility"]), st.sampled_from([4, 6, 50]))
def test_table_stats_of_an_integer_table_equal_the_weighted_stats(rows, conditioning, n_bins):
    Pi, B, sign, w = (np.array(col) for col in zip(*rows))
    panel = _toy_panel(Pi, B, sign, n_bins=n_bins)
    sort = sort_cohorts(panel, 1.0, conditioning=conditioning)
    table = _loop_table(panel, sort, w)
    assert np.array_equal(cohort_table(sort, w), table)
    from_table = table_stats(sort, table, panel.config.pricing.S_delta)
    weighted = table_stats(sort, cohort_table(sort, w), panel.config.pricing.S_delta)
    assert set(from_table) == set(weighted) == set(KINDS[conditioning])
    for kind in KINDS[conditioning]:
        for a, b in zip(from_table[kind], weighted[kind]):
            assert np.array_equal(a, b, equal_nan=True), kind


def _table_median(panel, sort, w):
    boot = _TableBootstrap(sort, cohort_table(sort), panel.Pi[:, 0], rng=None)
    return boot.median(cohort_table(sort, w), lambda counts, idx, pos: w[idx])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            # few distinct levels, so ties, shared bins and both fold sides are common
            st.sampled_from([0.01, 0.1, 0.24, 0.26, 0.49, 0.5, 0.51, 0.74, 0.76, 0.9, 0.99])
            | st.floats(0.001, 0.999),
            st.integers(0, 1), st.sampled_from([-1, 1]), st.integers(0, 3),
        ),
        min_size=1,
        max_size=40,
    ).filter(lambda rows: sum(r[3] for r in rows) > 0),
    st.sampled_from([4, 6, 50]),
)
@example([(0.1, 1, 1, 1), (0.1, 0, -1, 1), (0.3, 1, 1, 1), (0.3, 0, 1, 1)], 4)
@example([(0.1, 1, 1, 2), (0.9, 0, -1, 0), (0.8, 1, 1, 1), (0.7, 0, 1, 1)], 6)
def test_group_search_picks_the_asset_level_median(rows, n_bins):
    Pi, B, sign, w = (np.array(col) for col in zip(*rows))
    panel = _toy_panel(Pi, B, sign, n_bins=n_bins)
    sort = sort_cohorts(panel, 1.0)
    vals = panel.Pi[:, 0]
    assert _table_median(panel, sort, w) == _fold_median_weighted(vals, np.argsort(vals), w)


def test_group_search_at_a_half_total_on_a_group_boundary():
    # weights 2 in the 0.1 group, 1 in the 0.3 group, 1 on the high side:
    # the half-total 2 is reached exactly at the end of the 0.1 group, so the
    # median is its last weighted member, not the next group's first
    Pi = [0.1, 0.3, 0.3, 0.1, 0.8, 0.7, 0.31]
    w = np.array([1, 1, 0, 1, 1, 0, 0])
    panel = _toy_panel(Pi, [1, 0, 1, 0, 1, 1, 0], [1, -1, 1, 1, -1, 1, 1], n_bins=8)
    sort = sort_cohorts(panel, 1.0)
    _, _, cum = _belief_groups(cohort_table(sort, w))
    assert cum[0] == cum[-1] / 2 == 2
    vals = panel.Pi[:, 0]
    expected = _fold_median_weighted(vals, np.argsort(vals), w)
    assert expected == 0.1
    assert _table_median(panel, sort, w) == expected


def test_fold_median_level_is_numpy_median_bit_for_bit(monkeypatch):
    # odd and even n, ties, beliefs at 1/2 and on bin edges (both sides of
    # the fold), one- and two-byte codes; a scan of 7 codes at a time makes
    # each group's gather span several scans
    monkeypatch.setattr(estimation, "_SCAN", 7)
    rng = np.random.default_rng(22)
    for k in range(600):
        n_bins = (4, 6, 50, 66)[k % 4]
        n = int(rng.integers(1, 300)) if k % 5 else int(rng.integers(1, 4))
        edges = np.linspace(0.0, 0.5, n_bins // 2 + 1)[1:]
        pool = np.concatenate([edges, 1.0 - edges, rng.uniform(0.001, 0.999, 4)])
        Pi = rng.choice(pool, n) if k % 3 else rng.uniform(0.001, 0.999, n)
        panel = _toy_panel(Pi, rng.integers(0, 2, n), rng.choice([-1, 1], n), n_bins=n_bins)
        sort = sort_cohorts(panel, 1.0)
        assert sort.code.dtype == (np.uint8 if n_bins <= 65 else np.uint16)
        med = float(np.median(Pi))
        got = estimation._fold_median_level(panel.Pi[:, 0], sort.code, cohort_table(sort))
        assert got == min(med, 1.0 - med), (n, n_bins, got, med)


def _homogeneous(a, b, alpha):
    """Two-sample chi-square test of equal discrete laws; True unless rejected at alpha."""
    levels, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    counts = np.stack([np.bincount(inv[: len(a)], minlength=len(levels)),
                       np.bincount(inv[len(a):], minlength=len(levels))])
    # pool rare levels so every expected count is at least 5
    keep = counts.sum(axis=0) >= 20
    pooled = np.column_stack([counts[:, keep], counts[:, ~keep].sum(axis=1)])
    pooled = pooled[:, pooled.sum(axis=0) > 0]
    if pooled.shape[1] < 2:
        return True
    return chi2_contingency(pooled)[1] > alpha


def test_table_draws_follow_the_asset_level_law():
    rng = np.random.default_rng(2024)
    n = 40
    panel = _toy_panel(
        rng.uniform(0.02, 0.98, n), rng.integers(0, 2, n), rng.choice([-1, 1], n), n_bins=6
    )
    sort = sort_cohorts(panel, 1.0)
    vals = panel.Pi[:, 0]
    order = np.argsort(vals)
    reps = 20_000
    asset_rng = np.random.default_rng(7)
    boot = _TableBootstrap(sort, cohort_table(sort), vals, np.random.default_rng(8))
    asset_tables, asset_medians, tables, medians = [], [], [], []
    for _ in range(reps):
        w = np.bincount(asset_rng.integers(n, size=n), minlength=n)
        asset_tables.append(cohort_table(sort, w).ravel())
        asset_medians.append(_fold_median_weighted(vals, order, w))
        k = boot.draw()
        tables.append(k.ravel())
        medians.append(boot.fold_median(k))
    asset_tables, tables = np.array(asset_tables), np.array(tables)
    occupied = cohort_table(sort).ravel() > 0
    assert np.all(tables.sum(axis=1) == n) and np.all(tables[:, ~occupied] == 0)
    # the fallback median, drawn within its group given the table
    assert _homogeneous(np.array(asset_medians), np.array(medians), 1e-3)
    # each occupied category's count jointly with the median, Bonferroni over
    # the categories: the median must follow the table it was drawn from
    _, level = np.unique(asset_medians + medians, return_inverse=True)
    alpha = 1e-3 / occupied.sum()
    for c in np.flatnonzero(occupied):
        pair = level * (n + 1) + np.concatenate([asset_tables[:, c], tables[:, c]])
        assert _homogeneous(pair[:reps], pair[reps:], alpha), c
