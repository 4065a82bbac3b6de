"""simulate_blocks against the per-asset reference loop, bit for bit."""

import functools
import tracemalloc

import numpy as np
import pytest

from rnemarket import market
from rnemarket.inference import InferenceParams, InputError, posterior_from_loglr
from rnemarket.market import (
    ASSET_BLOCK,
    MarketPanel,
    ResourceLimitError,
    _b_prob,
    make_config,
    simulate_blocks,
)
from rnemarket.pricing import canonical_price, rne_belief

from conftest import whole_panel

FIELDS = ("times", "B", "sign", "loglr", "pi", "Pi", "S")

CONFIGS = {
    "default": {},
    "z_stream": dict(
        sigma_Z=0.1, rZ_delta=0.05, bsure_premium_drift=0.01,
        inference=InferenceParams(sigma_lZ=0.5, schedule=((1.0, 0.3, 0.4), (3.0, 0.5, 0.2))),
    ),
    "rne": dict(b_measure="rne", K=2.0, sign_prob_plus=0.3),
    "reference": dict(b_measure="reference", rZ_delta=0.05),
}
SIZES = (1, ASSET_BLOCK - 1, ASSET_BLOCK, ASSET_BLOCK + 1, 3 * ASSET_BLOCK + 7)
SEEDS = (0, 112, 2**63 - 1)


def reference_simulate_market(config, seed):
    """The per-asset loop that simulated the panel before the block kernel.

    Asset a gets its own Generator(Philox(key=[seed, a])); seed < 2**63, so
    the key list converts exactly.
    """
    inf = config.inference
    times, rec_idx = inf.path_grid(config.record_times)
    var_z, var_d = inf.interval_variances(times)
    n_int = len(times) - 1
    pr = config.pricing
    need_z = pr.sigma_Z > 0 or np.any(var_z > 0)
    sd_z = np.sqrt(var_z)
    sd_d = np.sqrt(var_d)
    half = (var_z + var_d) / 2.0
    dts = np.diff(times)
    prior_odds = config.truth.pi1_0 / (1 - config.truth.pi1_0)
    n, T = config.n_assets, len(rec_idx)

    B = np.empty(n, dtype=np.int8)
    sign = np.empty(n, dtype=np.int8)
    loglr = np.empty((n, T))
    pi = np.empty((n, T))
    Pi = np.empty((n, T))
    S = np.empty((n, T))
    prem = np.array([pr.premium_to_go(t) for t in times])
    s_delta = np.array([pr.s_delta_at(t) for t in times])

    for a in range(n):
        rng = np.random.Generator(np.random.Philox(key=[seed, a]))
        u_sign = rng.random()
        u_b = rng.random()
        s = 1 if u_sign < config.sign_prob_plus else -1
        b = 1 if u_b < _b_prob(config, s) else 0
        z_d = rng.standard_normal(n_int)
        z_z = rng.standard_normal(n_int) if need_z else None
        incr = (1.0 if b == 1 else -1.0) * half + sd_d * z_d
        if z_z is not None:
            incr = incr + sd_z * z_z
        l_path = np.concatenate([[0.0], np.cumsum(incr)])
        y = np.full(len(times), pr.y_minus0)
        if pr.sigma_Z > 0 or pr.rZ_delta > 0:
            up = (b == 1) == (s == 1)
            dy = pr.sigma_Z * np.sqrt(dts) * z_z if pr.sigma_Z > 0 else np.zeros(n_int)
            if up and pr.rZ_delta > 0:
                dy = dy + pr.rZ_delta * dts
            y[1:] += np.cumsum(dy)
        pi_path = posterior_from_loglr(prior_odds, l_path)
        Pi_path = rne_belief(pi_path, pr.K, s)
        up_prob = Pi_path if s == 1 else 1.0 - Pi_path
        s_path = canonical_price(y, s_delta, up_prob, prem)
        B[a] = b
        sign[a] = s
        loglr[a] = l_path[rec_idx]
        pi[a] = pi_path[rec_idx]
        Pi[a] = Pi_path[rec_idx]
        S[a] = s_path[rec_idx]

    return MarketPanel(
        config=config, seed=seed, times=np.asarray(config.record_times, float),
        B=B, sign=sign, loglr=loglr, pi=pi, Pi=Pi, S=S,
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_reference_loop_bit_for_bit(name, seed, monkeypatch):
    # asset a's draws depend on (seed, a) alone, so the reference panel of
    # the largest size holds the reference of every smaller one as a prefix
    redone = []  # (assets sent down numpy's per-asset path, normals per asset), per block
    block_draws = market._block_draws

    def spy(seed, lo, words, draws):
        cols = block_draws(seed, lo, words, draws)
        redone.append((len(cols), len(draws) - 2))
        return cols

    monkeypatch.setattr(market, "_block_draws", spy)
    ref = reference_simulate_market(make_config(n_assets=max(SIZES), **CONFIGS[name]), seed)
    for n in SIZES:
        cfg = make_config(n_assets=n, **CONFIGS[name])
        del redone[:]
        got = whole_panel(cfg, seed)
        for f in FIELDS:
            want = getattr(ref, f) if f == "times" else getattr(ref, f)[:n]
            have = getattr(got, f)
            assert have.dtype == want.dtype, (f, n)
            assert np.array_equal(have, want), (f, n)
        if n == max(SIZES):
            # some assets took numpy's per-asset draw, fewer than if 2% of
            # normals left the ziggurat fast path (about 1.5% do)
            n_redone, k = sum(r for r, _ in redone), redone[0][1]
            assert 0 < n_redone < n * (1 - 0.98**k), (n_redone, k)
        # a panel of one epoch is that epoch's column of the full panel
        for j in range(len(cfg.record_times)):
            one = whole_panel(cfg, seed, epochs=[j])
            for f in FIELDS:
                want = getattr(ref, f)
                if f == "times":
                    want = want[[j]]
                elif want.ndim == 2:
                    want = want[:n, [j]]
                else:
                    want = want[:n]
                assert want.dtype == getattr(one, f).dtype, (f, n, j)
                assert np.array_equal(getattr(one, f), want), (f, n, j)


@pytest.mark.parametrize("name", ("default", "z_stream"))
def test_redraw_alone_matches_the_kernel(name, monkeypatch):
    # with every bound 0 no word is on the fast path: numpy redraws every asset
    cfg = make_config(n_assets=ASSET_BLOCK + 1, **CONFIGS[name])
    want = whole_panel(cfg, 112)
    wi, kbound = market._ziggurat_tables()
    monkeypatch.setattr(market, "_ziggurat_tables", lambda: (wi, np.zeros_like(kbound)))
    got = whole_panel(cfg, 112)
    for f in FIELDS:
        assert getattr(got, f).dtype == getattr(want, f).dtype, f
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


@pytest.mark.parametrize("seed", (0, 112, 2**64 - 1))
def test_philox_words_match_numpy(seed):
    ids = np.array([0, 2**32 - 1, 2**32, 2**63], np.uint64)
    words = market._philox_words(seed, ids, np.empty((12, len(ids)), np.uint64))
    for j, a in enumerate(ids):
        bitgen = np.random.Philox(key=np.array([seed, a], np.uint64))
        assert np.array_equal(words[:, j], bitgen.random_raw(12)), a


def test_ziggurat_tables_match_numpy():
    """Each enabled level's wi is numpy's, and its bound is at most numpy's threshold."""
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)

    def numpy_normal(rabs, level, sign=0):
        # numpy's normal of one chosen word, and whether it took only that word
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
            "buffer": ((rabs << 9) | (sign << 8) | level, 0, 0, 0),
            "buffer_pos": 0,
            "has_uint32": 0,
            "uinteger": 0,
        }
        x = rng.standard_normal()
        state = bitgen.state
        return x, state["buffer_pos"] == 1 and not state["state"]["counter"].any()

    wi, kbound = market._ziggurat_tables()
    assert np.array_equal(wi[256:], -wi[:256]) and np.array_equal(kbound[256:], kbound[:256])
    enabled = 0
    for level in range(256):
        lo, hi = -1, 2**52  # numpy's fast path takes rabs <= lo and leaves it for rabs >= hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if numpy_normal(mid, level)[1] else (lo, mid)
        if kbound[level] == 0:
            continue
        enabled += 1
        assert hi - 1 <= int(kbound[level]) <= hi, level
        for rabs in (0, 1, 2**51, int(kbound[level]) - 1, 3 * 2**49 + 12345):
            for sign in (0, 1):
                x, fast = numpy_normal(rabs, level, sign)
                assert fast and x == rabs * wi[256 * sign + level], (level, rabs, sign)
    assert enabled == 255  # level 1 has no fast path: numpy tests every draw of it


def test_distinct_seeds_give_distinct_panels():
    # 2**63 + 1 and 2**64 - 1 used to alias through a float64 key
    seeds = (0, 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1)
    cfg = make_config(n_assets=64)
    panels = [whole_panel(cfg, s) for s in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(panels[i].loglr, panels[j].loglr), (seeds[i], seeds[j])


def test_seed_outside_the_u64_range_is_rejected():
    cfg = make_config(n_assets=4)
    for seed in (-1, 2**64):
        with pytest.raises(InputError, match="seed"):
            simulate_blocks(cfg, seed)


def test_working_memory_is_bounded_by_the_block():
    # a caller that keeps nothing of the blocks holds one block at a time,
    # whatever n_assets is: 100,000 assets are 25 blocks
    cfg = make_config(n_assets=100_000)
    for epochs in (None, [2]):
        tracemalloc.start()
        try:
            for _ in simulate_blocks(cfg, 0, epochs=epochs):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, (epochs, peak)


@functools.cache
def _z_stream_reference(seed):
    # asset a's draws depend on (seed, a) alone: a prefix is a smaller panel's reference
    return reference_simulate_market(make_config(n_assets=10_001, **CONFIGS["z_stream"]), seed)


@pytest.mark.parametrize("epochs", [None, [2]], ids=["all", "one"])
@pytest.mark.parametrize("n", [1_000, 2 * ASSET_BLOCK, 10_001])
def test_blocks_concatenate_to_the_panel_bit_for_bit(n, epochs):
    cfg = make_config(n_assets=n, **CONFIGS["z_stream"])
    ref = _z_stream_reference(7)
    cols = slice(None) if epochs is None else epochs
    blocks = list(simulate_blocks(cfg, 7, epochs=epochs))
    assert [b.first_id for b in blocks] == list(range(0, n, ASSET_BLOCK))
    assert sum(b.n_assets for b in blocks) == n
    for f in FIELDS:
        want = getattr(ref, f)
        want = want[cols] if f == "times" else want[:n, cols] if want.ndim == 2 else want[:n]
        got = (getattr(blocks[0], f) if f == "times"
               else np.concatenate([getattr(b, f) for b in blocks]))
        assert got.dtype == want.dtype, f
        assert np.array_equal(got, want), f
        if f == "times":
            assert all(np.array_equal(b.times, want) for b in blocks)


def test_shares_partition_the_blocks_bit_for_bit():
    # 4 blocks, the last of 5 assets: procs shares of blocks k, k + procs, ...
    cfg = make_config(n_assets=3 * ASSET_BLOCK + 5)
    whole = {b.first_id: b for b in simulate_blocks(cfg, 3, epochs=[1])}
    for procs in (1, 2, 3, 4, 5):
        seen = []
        for k in range(procs):
            for b in simulate_blocks(cfg, 3, [1], (k, procs)):
                assert b.first_id // ASSET_BLOCK % procs == k
                for f in FIELDS:
                    assert np.array_equal(getattr(b, f), getattr(whole[b.first_id], f)), f
                seen.append(b.first_id)
        assert sorted(seen) == list(whole), procs


def test_block_errors_come_from_the_call_before_any_block():
    # no block is drawn: the generator is never advanced
    cfg = make_config(n_assets=1_000)
    with pytest.raises(ResourceLimitError):
        simulate_blocks(make_config(n_assets=1_000, max_asset_steps=100), 1)
    with pytest.raises(InputError, match="epochs"):
        simulate_blocks(cfg, 1, epochs=[4])
    with pytest.raises(InputError, match="seed"):
        simulate_blocks(cfg, 2**64)
    # a share that is not one of procs is an error too, and a share's call
    # raises every error the whole sequence's call does
    for share in ((2, 2), (-1, 2), (0, 0), (0.0, 1)):
        with pytest.raises(InputError, match="share"):
            simulate_blocks(cfg, 1, share=share)
    with pytest.raises(ResourceLimitError):
        simulate_blocks(make_config(n_assets=1_000, max_asset_steps=100), 1, share=(1, 2))
    with pytest.raises(InputError, match="epochs"):
        simulate_blocks(cfg, 1, [4], (1, 2))
