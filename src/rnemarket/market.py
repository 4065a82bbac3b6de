"""Cross-sectional market simulator and empirical cohort measurement.

Simulates N independent assets, each carrying one unresolved binary change
with a random direction, prices them canonically, and measures the cohort
curves (momentum by belief level, low-risk by belief volatility) that the
analytic module predicts. Reproducibility is exact: every asset draws from
its own counter-based substream keyed by (seed, asset_id), so the panel is
bit-identical on every run of one (config, seed). The substream is numpy's
Philox generator with numpy's uniforms and normals; a numpy kernel computes
them for a block of assets at once, with the ziggurat's tables read from
numpy by one-word probes, and the kernel redraws by numpy itself only an
asset whose normals leave numpy's ziggurat fast path. The package's one
fork model is here too: _run_shares runs fixed shares of a job, such as
the panel's blocks, in one forked process per usable CPU.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .anomalies import CohortCurve
from .inference import (
    InferenceParams, InputError, Milestones, expit, logit, loglr_paths, write_csv,
)
from .pricing import PricingParams, price_paths, rne_belief

__all__ = [
    "ResourceLimitError",
    "TruthParams",
    "MarketConfig",
    "MarketPanel",
    "CohortSort",
    "make_config",
    "simulate_blocks",
    "sort_cohorts",
    "cohort_table",
    "table_stats",
    "measure_expost_excess",
    "expost_decomposition",
    "odds_deviation",
    "reference_martingale_z",
    "priced_martingale_z",
    "write_panel_csv",
    "write_cohorts_csv",
]


# Assets per block of simulate_blocks: large enough that the per-block
# array work is amortized, small enough that a block's arrays and
# temporaries stay a few MB.
ASSET_BLOCK = 4096
# The most cohort bins: 8 categories per bin keep every code in two bytes.
MAX_BINS = 8192
# How far apart a time and the epoch it names may be.
TIME_TOL = 1e-12


def _time_index(times, t: float) -> int:
    """Position of t among times, to TIME_TOL; an InputError on t where none matches."""
    hits = np.nonzero(np.isclose(times, t, rtol=0, atol=TIME_TOL))[0]
    if len(hits) != 1:
        raise InputError(f"t={t} is not a recorded epoch", "t")
    return int(hits[0])


class ResourceLimitError(RuntimeError):
    """Requested simulation exceeds the configured step budget."""


@dataclass(frozen=True)
class TruthParams:
    """Objective law of the change outcomes and the bias linking it to priors."""

    p1_0: float = 0.49
    rho: float = 9.0

    def __post_init__(self) -> None:
        if not 0 < self.p1_0 < 1:
            raise InputError("p1_0 must lie in (0,1)", "p1_0")
        if self.rho <= 0:
            raise InputError("rho must be positive", "rho")
        if not 0 < self.pi1_0 < 1:
            raise InputError("the reference prior pi1_0 = expit(logit(p1_0) - log(rho)) "
                             "rounds to 0 or 1", "p1_0", "rho")

    @property
    def pi1_0(self) -> float:
        """Reference prior: true odds discounted by rho."""
        return float(expit(logit(self.p1_0) - math.log(self.rho)))


@dataclass(frozen=True)
class MarketConfig:
    n_assets: int = 10_000
    truth: TruthParams = field(default_factory=TruthParams)
    pricing: PricingParams = field(default_factory=PricingParams)
    inference: InferenceParams = field(default_factory=InferenceParams)
    sign_prob_plus: float = 0.5
    record_times: tuple = (0.6, 1.2, 2.4, 8.0)
    b_measure: str = "truth"
    n_min: int = 50
    n_bins: int = 50
    max_asset_steps: float = 2e8

    def __post_init__(self) -> None:
        if self.n_assets < 1:
            raise InputError("n_assets must be positive", "n_assets")
        if not 0 <= self.sign_prob_plus <= 1:
            raise InputError("sign_prob_plus must lie in [0,1]", "sign_prob_plus")
        if len(self.record_times) == 0:
            raise InputError("record_times must be nonempty", "record_times")
        rt = tuple(float(t) for t in self.record_times)
        # so a time is within TIME_TOL of one epoch at most
        if any(t <= 0 for t in rt) or any(b - a <= 2 * TIME_TOL for a, b in zip(rt, rt[1:])):
            raise InputError(
                f"record_times must be positive and increase by more than {2 * TIME_TOL:g}",
                "record_times",
            )
        short = [f"{part}.t_max" for part in ("inference", "pricing")
                 if rt[-1] > getattr(self, part).t_max]
        if short:
            raise InputError("record_times exceed the horizon", "record_times", *short)
        if self.b_measure not in ("truth", "reference", "rne"):
            raise InputError("b_measure must be truth, reference or rne", "b_measure")
        if self.n_bins < 2:
            raise InputError("n_bins must be at least 2", "n_bins")
        if self.n_bins > MAX_BINS:
            raise InputError(f"n_bins must be at most {MAX_BINS}", "n_bins")
        if self.n_min < 0:
            raise InputError("n_min must be nonnegative", "n_min")
        if not self.max_asset_steps > 0:
            raise InputError("max_asset_steps must be positive", "max_asset_steps")
        try:
            self.pricing.check_consistent(self.inference)
        except InputError as e:
            raise InputError(
                str(e), "pricing.rZ_delta", "pricing.sigma_Z", "inference.sigma_lZ"
            ) from e

    def time_index(self, t: float) -> int:
        """Position of t among record_times, to TIME_TOL."""
        return _time_index(self.record_times, t)

    def Pi1_0(self, sign_change: int) -> float:
        return float(rne_belief(self.truth.pi1_0, self.pricing.K, sign_change))

    def milestones(self, sigma_l: float) -> Milestones:
        """The milestones at signal-to-noise sigma_l, with rho < 1 read as 1."""
        return Milestones.from_params(
            self.truth.p1_0, max(self.truth.rho, 1.0), self.pricing.K, sigma_l
        )


def make_config(**kw) -> MarketConfig:
    """Build a MarketConfig from its fields plus flattened truth and pricing overrides."""
    truth = kw.pop("truth", None) or TruthParams(
        **{k: kw.pop(k) for k in ("p1_0", "rho") if k in kw}
    )
    pricing = kw.pop("pricing", None) or PricingParams()
    pricing = replace(pricing, **{
        k: kw.pop(k) for k in ("K", "S_delta", "bsure_premium_drift", "rZ_delta", "sigma_Z")
        if k in kw
    })
    inference = kw.pop("inference", None) or InferenceParams()
    return MarketConfig(truth=truth, pricing=pricing, inference=inference, **kw)


@dataclass
class MarketPanel:
    """Simulated ensemble at the epochs times, some or all of config.record_times.

    Arrays are (n_assets, len(times)) except B and sign which are per asset.
    Pi is the priced probability of the change itself (not of the upper
    branch); S folds the direction, matching the canonical price. Row i is
    asset first_id + i: a block of simulate_blocks starts past 0.
    """

    config: MarketConfig
    seed: int
    times: np.ndarray
    B: np.ndarray
    sign: np.ndarray
    loglr: np.ndarray
    pi: np.ndarray
    Pi: np.ndarray
    S: np.ndarray
    first_id: int = 0

    @property
    def n_assets(self) -> int:
        return len(self.B)

    def true_posterior(self, idx: int) -> np.ndarray:
        """Objective change probability given each asset's data at epoch idx."""
        prior = logit(self.config.truth.p1_0)
        return expit(prior + self.loglr[:, idx])


def _b_prob(config: MarketConfig, sign: int) -> float:
    if config.b_measure == "truth":
        return config.truth.p1_0
    if config.b_measure == "reference":
        return config.truth.pi1_0
    return config.Pi1_0(sign)


# Philox4x64-10 (Salmon et al., SC'11) as numpy's Philox computes it: the
# two round multipliers and the two Weyl increments of the key.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m, x, hi, lo, t1, t2) -> None:
    """hi, lo = the high and low 64-bit words of m * x, from 32-bit halves.

    m is a uint64 scalar; x, hi, lo and the scratch arrays t1, t2 are
    distinct uint64 arrays of one shape. No partial sum leaves uint64.
    """
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    np.bitwise_and(x, _LOW32, out=t1)
    np.multiply(t1, m_lo, out=t2)
    np.right_shift(t2, _SHIFT32, out=t2)
    np.right_shift(x, _SHIFT32, out=hi)
    np.multiply(hi, m_lo, out=lo)
    np.add(lo, t2, out=lo)  # m_lo*x_hi + carry of m_lo*x_lo
    np.multiply(t1, m_hi, out=t1)
    np.bitwise_and(lo, _LOW32, out=t2)
    np.add(t1, t2, out=t1)  # m_hi*x_lo + low half of the above
    np.multiply(hi, m_hi, out=hi)
    np.right_shift(lo, _SHIFT32, out=lo)
    np.add(hi, lo, out=hi)
    np.right_shift(t1, _SHIFT32, out=t1)
    np.add(hi, t1, out=hi)
    np.multiply(x, m, out=lo)


def _philox_words(seed: int, keys, out: np.ndarray) -> np.ndarray:
    """Philox words of the streams keyed by (seed, keys[j]), into out[:, j].

    out has 4*c rows: row i is word i of Philox(key=[seed, keys[j]]) from
    its fresh state, i.e. lane i % 4 of counter i // 4 + 1 (numpy bumps the
    counter before each 4-word block), bit for bit.
    """
    shape = (len(out) // 4, out.shape[1])
    x0, x1, x2, x3, hi, lo0, lo1, t1, t2 = (np.empty(shape, np.uint64) for _ in range(9))
    k0, k1 = seed, np.array(keys, np.uint64)
    # round 1 takes the fresh counter (c, 0, 0, 0) to (k0, 0, hi(M0 c) ^ k1, lo(M0 c))
    products = [int(_PHILOX_M[0]) * c for c in range(1, shape[0] + 1)]
    x0[:] = np.uint64(k0)
    x1[:] = 0
    np.bitwise_xor(np.array([p >> 64 for p in products], np.uint64)[:, None], k1, out=x2)
    x3[:] = np.array([p % 2**64 for p in products], np.uint64)[:, None]
    for _ in range(9):
        k0 = (k0 + _PHILOX_W[0]) % 2**64
        k1 += _PHILOX_W[1]
        _mulhilo(_PHILOX_M[0], x0, hi, lo0, t1, t2)
        x3 ^= hi
        x3 ^= k1
        _mulhilo(_PHILOX_M[1], x2, hi, lo1, t1, t2)
        x1 ^= hi
        x1 ^= np.uint64(k0)
        x0, x1, x2, x3, lo0, lo1 = x1, lo1, x3, lo0, x0, x2
    for j, lane in enumerate((x0, x1, x2, x3)):
        out[j::4] = lane
    return out


def _philox_state(key, buffer, buffer_pos) -> dict:
    """numpy's Philox state at counter 0 under key, with words buffer[buffer_pos:] still to read.

    The one place this package writes numpy's Philox state: a fresh stream
    is buffer_pos 4, and chosen words go in buffer from buffer_pos on.
    """
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": buffer, "buffer_pos": buffer_pos, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _ziggurat_tables() -> tuple:
    """(wi, kbound) of numpy's standard-normal fast path, read from numpy itself.

    numpy's ziggurat (Marsaglia & Tsang 2000) reads one word w as a level
    (bits 0-7), a sign (bit 8) and rabs (bits 9-60), and returns
    x = +-rabs * wi[level] when rabs < ki[level]. A probe feeds one chosen
    word through Philox's settable buffer to standard_normal, with the
    sentinel word 1 after it and 0s after that; a normal that took exactly
    that word took the fast path and leaves the sentinel as the next raw
    word, since a rejection reads it too and leaves a 0 or a fresh Philox
    word (never 1) next. So wi[level] is x / 2**51 at rabs = 2**51, exactly, and
    a bound k is proved <= ki[level] where numpy returns (k - 1) * wi[level]
    for rabs = k - 1. Each fast level is bisected once for the largest
    such k: over (guess - 1, guess] when the probe proves numpy's
    construction guess floor(2**52 wi[level-1] / wi[level]) (level 0 takes
    level 255's), over (0, 2**52] otherwise. A level off the fast path at
    rabs = 2**51 (today level 1, which has no fast path) gets bound 0, so
    its words always take numpy's own draw: a bound of 0 is always correct,
    only slower. Both tables have 512 entries indexed by w & 0x1ff; wi
    carries the sign. The arrays are read-only: every caller in the process
    shares them.
    """
    rng = np.random.Generator(np.random.Philox())

    def probe(rabs: int, level: int) -> float:
        # numpy's normal of the word (rabs, sign +, level); NaN off the fast path
        rng.bit_generator.state = _philox_state((0, 0), ((rabs << 9) | level, 1, 0, 0), 0)
        x = rng.standard_normal()
        return x if rng.bit_generator.random_raw() == 1 else math.nan

    wi = np.array([probe(2**51, level) for level in range(256)]) / 2.0**51

    def fast(rabs: int, level: int) -> bool:
        return probe(rabs, level) == rabs * wi[level]  # NaN fails

    kbound = np.zeros(256, np.uint64)
    for level in np.flatnonzero(wi > 0).tolist():
        guess = math.floor(2.0**52 * wi[level - 1] / wi[level]) if wi[level - 1] > 0 else 0
        # the bound is hi once a probe proves lo fast: the guess's, a mid's or the last one
        lo, hi = (guess - 1, guess) if guess >= 1 and fast(guess - 1, level) else (0, 2**52)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if fast(mid, level) else (lo, mid)
        kbound[level] = hi if lo or fast(0, level) else 0
    wi = np.where(kbound > 0, wi, 0.0)
    tables = np.concatenate([wi, -wi]), np.concatenate([kbound, kbound])
    for t in tables:
        t.flags.writeable = False
    return tables


def _block_draws(seed: int, lo: int, words: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Draws of assets lo, lo+1, ... into the columns of draws; returns the columns it redrew.

    draws has a row per draw of the substream order (see simulate_blocks),
    words 4 * ceil(rows / 4) rows of the same width. The two uniforms are
    numpy's (w >> 11) * 2**-53 of the first two words, and each later word
    gives numpy's normal wherever its ziggurat fast path (_ziggurat_tables)
    takes it. A column with any word off that path is redrawn: the stream
    of such an asset shifts, so one Philox generator, set to the asset's
    fresh stream, draws its column by numpy itself.
    """
    wi, kbound = _ziggurat_tables()
    _philox_words(seed, np.arange(lo, lo + words.shape[1], dtype=np.uint64), words)
    w = words[: len(draws)]
    np.multiply(w[:2] >> np.uint64(11), 2.0**-53, out=draws[:2])
    signed_level = (w[2:] & np.uint64(0x1FF)).view(np.int64)
    rabs = (w[2:] >> np.uint64(9)) & np.uint64(2**52 - 1)
    np.multiply(rabs, wi[signed_level], out=draws[2:])
    redo = np.flatnonzero((rabs >= kbound[signed_level]).any(axis=0))
    bitgen = np.random.Philox(key=lo)  # a key reads no OS entropy; each asset sets the state
    rng = np.random.Generator(bitgen)
    row = np.empty(len(draws))
    key = [seed, 0]  # Python ints convert to the C key words exactly
    fresh = _philox_state(key, (0, 0, 0, 0), 4)  # holds key itself: key[1] re-keys it
    for i in redo.tolist():
        key[1] = lo + i
        bitgen.state = fresh
        rng.random(out=row[:2])
        rng.standard_normal(out=row[2:])
        draws[:, i] = row
    return redo


def simulate_blocks(config: MarketConfig, seed: int, epochs=None, share=(0, 1)):
    """The simulated panel, in MarketPanel blocks of ASSET_BLOCK assets.

    The panel is N independent assets with exact Gaussian log-LR jumps
    between the recorded epochs; it is the concatenation of the blocks, in
    asset order, and no function here builds it whole. Asset a draws from
    Philox keyed by the exact 64-bit pair (seed, a), so seed must lie in
    [0, 2**64). Per asset, the substream order is: sign uniform, outcome
    uniform, the D-stream normals for every interval, then the Z-stream
    normals if pricing.draws_z. The draws of a block come at once from
    _block_draws, a numpy kernel that computes their Philox words and turns
    each later word into numpy's ziggurat normal on its one-word fast path,
    with tables read once per process from numpy itself, by one-word probes
    (_ziggurat_tables). _block_draws redraws an asset with any word off
    that path (a ziggurat rejection or the tail, about 6% of assets at the
    default config) by numpy itself. Either way each draw is numpy's, bit
    for bit. The shared path kernel (loglr_paths,
    price_paths) then evaluates the block's paths, beliefs and prices
    together. Block k holds assets k * ASSET_BLOCK onwards (its first_id)
    in arrays of its own, so a caller that keeps only what it reads holds
    memory that does not grow with n_assets.

    epochs lists indices into config.record_times: the blocks keep those
    epochs' columns only (every epoch when None), each bit-identical to that
    column of the blocks of every epoch. Anything but a nonempty list of distinct
    indices in [0, len(record_times)) is an InputError on epochs.

    share = (k, procs) yields only blocks k, k + procs, ..., each the same
    as that block of the whole sequence: the procs shares partition the
    blocks, so procs processes may each simulate one (see _run_shares).
    Anything but integers 0 <= k < procs is an InputError on share. Every
    InputError and ResourceLimitError comes from this call, before any block.
    """
    if not 0 <= seed < 2**64:
        raise InputError("seed must lie in [0, 2**64)")
    k, procs = share
    if not all(isinstance(x, int) for x in share) or not 0 <= k < procs:
        raise InputError("share must be (k, procs) with integers 0 <= k < procs", "share")
    n_rec = len(config.record_times)
    epochs = np.arange(n_rec) if epochs is None else np.asarray(epochs)
    flat = epochs.ndim == 1 and epochs.dtype.kind in "iu"
    valid = set(epochs.tolist()) & set(range(n_rec)) if flat else set()
    if not valid or len(valid) != epochs.size:
        raise InputError(f"epochs must be distinct indices into the {n_rec} record times", "epochs")
    inf = config.inference
    times, rec_idx = inf.path_grid(config.record_times)
    var_z, var_d = inf.interval_variances(times)
    n_int = len(times) - 1
    if config.n_assets * n_int > config.max_asset_steps:
        raise ResourceLimitError(
            f"{config.n_assets} assets x {n_int} intervals exceeds "
            f"max_asset_steps={config.max_asset_steps:g}"
        )
    pr = config.pricing
    b_prob = {s: _b_prob(config, s) for s in (1, -1)}
    cols = rec_idx[epochs]
    kept = np.asarray(config.record_times, float)[epochs]
    n = config.n_assets
    n_draws = 2 + n_int * (2 if pr.draws_z(var_z) else 1)

    def blocks():
        width = min(n, ASSET_BLOCK)
        words = np.empty((-(-n_draws // 4) * 4, width), np.uint64)
        draws = np.empty((n_draws, width))
        for lo in range(k * ASSET_BLOCK, n, procs * ASSET_BLOCK):
            d = draws[:, : min(lo + ASSET_BLOCK, n) - lo]
            _block_draws(seed, lo, words[:, : d.shape[1]], d)
            plus = d[0] < config.sign_prob_plus
            b = d[1] < np.where(plus, b_prob[1], b_prob[-1])
            z = d[2:].T
            loglr = loglr_paths(var_z, var_d, b, z)
            paths = price_paths(pr, config.truth.pi1_0, times, cols, loglr, b, plus, z)
            yield MarketPanel(config, seed, kept, b.astype(np.int8),
                              np.where(plus, 1, -1).astype(np.int8), *paths, first_id=lo)

    return blocks()


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it should not fork.

    A fork copies only the calling thread, so with another Python thread
    running (whose locks the child would inherit held) it counts as 1 too.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0)) if threading.active_count() == 1 else 1


def _run_shares(procs: int, share, label) -> None:
    """share(k) for every k < procs, share 0 in this process and each other in a child.

    Each child is forked once, runs one share and leaves with os._exit: 0
    if the share returned, 1 after printing the traceback if it raised, with
    no exit handler run and no buffer of this process flushed. This process
    runs share 0 and then, in order, each share it could fork no child for
    (a process limit, no memory). A caller picks procs = min(_usable_cpus(),
    items) and gives share k a fixed part of its items, so every run makes
    the same calls in each process whatever the CPU count; what a child
    computes reaches this process only through memory the caller mapped
    before the call. Every child is reaped before this returns, also when
    share 0 raises; a child that fails is a RuntimeError naming label(k).
    """
    children, own = {}, [0]
    try:
        for k in range(1, procs):
            try:
                pid = os.fork()
            except OSError:  # EAGAIN under a process limit, ENOMEM
                own.append(k)
                continue
            if pid == 0:
                code = 1
                try:
                    share(k)
                    code = 0
                except BaseException:  # the child's top level: report, then exit below
                    sys.excepthook(*sys.exc_info())
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            children[pid] = label(k)
        for k in own:
            share(k)
    finally:
        failed = []
        for pid, name in children.items():
            status = os.waitpid(pid, 0)[1]
            if status:
                failed.append(f"{name} (exit {os.waitstatus_to_exitcode(status)})")
        if failed:
            raise RuntimeError("the writer of " + "; ".join(failed) + " failed")


@dataclass
class CohortSort:
    """Cohort membership at one epoch: the bin edges and each asset's category.

    code[i] = ((bin*2 + high side)*2 + plus sign)*2 + hit runs over
    [0, 8*n_bins) and indexes cohort_table's flattened (bin, fold side,
    sign, B) axes: bin = code >> 3, side = code >> 2 & 1, sign = code >> 1 & 1,
    hit = code & 1. Its dtype is the narrowest unsigned one that holds
    8*n_bins - 1 (uint8 up to 32 bins, uint16 up to 8,192). The high side
    holds the volatility sort's assets with Pi > 1/2; on the pi_level sort
    every asset is on the low side.
    """

    conditioning: str
    edges: np.ndarray
    code: np.ndarray


def sort_cohorts(panel: MarketPanel, t: float, conditioning: str = "volatility") -> CohortSort:
    """Group assets into equal bins of belief level (pi_level) or folded level (volatility).

    pi_level cuts [0, 1] into n_bins bins; volatility folds Pi to
    min(Pi, 1 - Pi) and cuts [0, 1/2] into n_bins // 2. Empty bins are kept.
    t must be one of panel.times.
    """
    vals = panel.Pi[:, _time_index(panel.times, t)]
    n_bins = panel.config.n_bins
    if conditioning == "volatility":
        x, high, n_bins, top = np.minimum(vals, 1.0 - vals), vals > 0.5, n_bins // 2, 0.5
    elif conditioning == "pi_level":
        x, high, top = vals, False, 1.0
    else:
        raise InputError("conditioning must be pi_level or volatility")
    edges = np.linspace(0.0, top, n_bins + 1)
    bin_index = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    code = ((bin_index * 2 + high) * 2 + (panel.sign == 1)) * 2 + (panel.B == 1)
    return CohortSort(conditioning, edges, code.astype(np.min_scalar_type(8 * n_bins - 1)))


def cohort_table(sort: CohortSort, weights=None) -> np.ndarray:
    """Weight of each (bin, fold side, sign, B) category, shape (n_bins, 2, 2, 2).

    The bincount of sort.code. Axis 1 is the fold side (0 low, 1 high),
    axis 2 the sign (0 minus, 1 plus), axis 3 the outcome (0 miss, 1 hit).
    Unit weights count the assets; integer weights w_i count asset i w_i
    times.
    """
    n_cat = 8 * (len(sort.edges) - 1)
    return np.bincount(sort.code, weights=weights, minlength=n_cat).reshape(-1, 2, 2, 2)


def table_stats(sort: CohortSort, table, S_delta: float) -> dict:
    """Excess statistics of the sorted cohorts from a category table: {kind: (rp, se, n)}.

    Each asset falls in one cell (bin, fold side, sign) and is scored as
    sign*(1_{B=1} - u)*S_delta against a level u constant on the cell: the
    bin center, or 1 - center on the high side of the fold. So the weight w
    and hit weight h of a cell give its statistics exactly: p = h/w, mean
    sign*(p - u)*S_delta, variance of the mean S_delta^2*p(1-p)/(w-1) for
    w > 1 (NaN otherwise). Momentum curves are the sign cells themselves.
    Volatility curves average the two sign arms half/half on each side of
    the fold (the unconditional mix) and weight the fold sides by
    occupancy, matching the analytic composition; a bin with an occupied
    side whose arms cannot both be measured is NaN.
    """
    table = np.asarray(table, float)
    centers = 0.5 * (sort.edges[:-1] + sort.edges[1:])
    w_c = table.sum(axis=3)
    h_c = table[..., 1]
    u = np.stack([centers, 1.0 - centers], axis=1)[:, :, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        p = h_c / w_c
        mean = np.array([-1.0, 1.0]) * (p - u) * S_delta
        var = np.where(w_c > 1, S_delta**2 * p * (1 - p) / (w_c - 1), np.nan)
    if sort.conditioning == "pi_level":
        return {
            kind: (mean[:, 0, j], np.sqrt(var[:, 0, j]), w_c[:, 0, j])
            for kind, j in (("momentum_plus", 1), ("momentum_minus", 0))
        }
    n_side = w_c.sum(axis=2)
    n_tot = n_side.sum(axis=1)
    occupied = n_side > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        w_side = np.where(occupied, n_side / n_tot[:, None], 0.0)
    arm = np.where(occupied, 0.5 * (mean[:, :, 1] + mean[:, :, 0]), 0.0)
    arm_var = np.where(occupied, 0.25 * (var[:, :, 1] + var[:, :, 0]), 0.0)
    bad = ~np.isfinite(arm_var).all(axis=1) | (n_tot == 0)
    rp = np.where(bad, np.nan, (w_side * arm).sum(axis=1))
    se = np.where(bad, np.nan, np.sqrt((w_side**2 * arm_var).sum(axis=1)))
    return {"volatility": (rp, se, n_tot)}


def measure_expost_excess(cohorts: CohortSort, table, S_delta: float) -> dict:
    """The sort's cohort curves from a unit-weight category table: {kind: CohortCurve}.

    table is cohort_table(cohorts), or a sum of such tables, e.g. over
    simulate_blocks' blocks. rp, se and n are its table_stats at the bin
    centers; mix is each bin's sign mix n_plus/n_minus over both fold sides
    (NaN unless both signs are present), the same for every curve of the sort.
    """
    signs = table.sum(axis=(1, 3))
    with np.errstate(invalid="ignore", divide="ignore"):
        mix = np.where((signs > 0).all(axis=1), signs[:, 1] / signs[:, 0], np.nan)
    centers = 0.5 * (cohorts.edges[:-1] + cohorts.edges[1:])
    return {
        kind: CohortCurve(kind, centers, rp, n, se=se, mix=mix)
        for kind, (rp, se, n) in table_stats(cohorts, table, S_delta).items()
    }


def expost_decomposition(blocks, t: float) -> dict:
    """Split the mean excess of a panel's blocks into priced, bias and residual parts.

    blocks is an iterable of MarketPanel blocks, e.g. simulate_blocks' (a
    whole panel is [panel]). Per asset the legs fold by the change
    direction: total = sign*(1_B - Pi), priced = sign*(pi - Pi), bias =
    sign*(p_t - pi) with p_t the objective posterior, residual =
    sign*(1_B - p_t). They telescope to the total identically; the residual
    is the pure luck term, zero in expectation under the truth measure.
    Reported for all assets and per sign group: with a symmetric sign mix
    the bias legs of the two groups offset each other, so the group scopes
    are where the bias is visible. Only the legs and signs are kept from
    each block. t must be one of each block's times.
    """
    names = ("total_drift", "priced_part", "bias_part", "residual")
    parts = {name: [] for name in (*names, "sign")}
    for block in blocks:
        idx = _time_index(block.times, t)
        S_delta = block.config.pricing.S_delta
        s = block.sign.astype(float)
        b_hit = (block.B == 1).astype(float)
        p_t = block.true_posterior(idx)
        pi, Pi = block.pi[:, idx], block.Pi[:, idx]
        for name, x in zip(names, (b_hit - Pi, pi - Pi, p_t - pi, b_hit - p_t)):
            parts[name].append(s * x * S_delta)
        parts["sign"].append(block.sign)
    legs = {name: np.concatenate(x) for name, x in parts.items()}
    sign = legs.pop("sign")
    scopes = {"all": np.ones(len(sign), bool), "plus": sign == 1, "minus": sign == -1}
    out = {}
    for scope, mask in scopes.items():
        rec = {"n": int(np.sum(mask))}
        for name, x in legs.items():
            xs = x[mask]
            rec[name] = float(np.mean(xs)) if len(xs) else math.nan
            rec[name + "_se"] = (
                float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else math.nan
            )
        out[scope] = rec
    return out


# The paper's panel claims, as the statistics that validate and the acceptance
# tests bound: each keeps only the columns it reads of the blocks, while it runs.
def odds_deviation(config: MarketConfig, seed: int) -> float:
    """The largest relative deviation of the odds ratio O(pi)/O(Pi) from K^sign
    over the panel's assets and record times: zero up to rounding."""
    def dev(b):
        ratio = (b.pi / (1 - b.pi)) / (b.Pi / (1 - b.Pi))
        return float(np.max(np.abs(ratio / config.pricing.K ** b.sign[:, None].astype(float) - 1)))
    return max(map(dev, simulate_blocks(config, seed)))


def _max_z(samples) -> float:
    """The largest |mean - target| in standard errors over (x, target) samples, or 0."""
    return max([0.0, *(abs(x.mean() - target) / (x.std(ddof=1) / math.sqrt(len(x)))
                       for x, target in samples)])


def reference_martingale_z(config: MarketConfig, seed: int) -> float:
    """The largest |z| of the mean belief pi against the prior pi1_0 over the record
    times; pi is a martingale, so within 3 SE, when config.b_measure is reference."""
    pi = np.concatenate([block.pi for block in simulate_blocks(config, seed)])
    return _max_z((pi[:, j], config.truth.pi1_0) for j in range(pi.shape[1]))


def priced_martingale_z(config: MarketConfig, seed: int) -> float:
    """The largest |z| of each sign group's mean priced belief Pi against Pi1_0(sign)
    over the record times; Pi is a martingale per sign when config.b_measure is rne."""
    kept = [(block.sign, block.Pi) for block in simulate_blocks(config, seed)]
    sign, Pi = (np.concatenate(x) for x in zip(*kept))
    return _max_z((Pi[sign == s, j], config.Pi1_0(s)) for s in (1, -1) for j in range(Pi.shape[1]))


def write_panel_csv(path, panel: MarketPanel, append: bool = False) -> None:
    """Long-format panel rows (asset_id, t, pi, Pi, S, B, sign); append=True adds
    them without a header, so simulate_blocks' blocks in turn write the panel's file."""
    T = len(panel.times)
    write_csv(
        path,
        ["asset_id", "t", "pi", "Pi", "S", "B", "sign"],
        [
            np.repeat(np.arange(panel.first_id, panel.first_id + panel.n_assets), T),
            np.tile(panel.times, panel.n_assets),
            panel.pi.ravel(),
            panel.Pi.ravel(),
            panel.S.ravel(),
            np.repeat(panel.B, T),
            np.repeat(panel.sign, T),
        ],
        append=append,
    )


def write_cohorts_csv(path, measured: dict, t: float, append: bool = False) -> None:
    """Cohort rows (t, kind, v_bin, rp, se, n, mix_ratio).

    With append=True rows are added without a header, so several epochs can
    share one file.
    """
    for i, kind in enumerate(sorted(measured)):
        c = measured[kind]
        write_csv(
            path,
            ["t", "kind", "v_bin", "rp", "se", "n", "mix_ratio"],
            [
                t,
                kind,
                c.v,
                c.rp,
                c.se,
                c.n.astype(np.int64),
                c.mix,
            ],
            append=append or i > 0,
        )
