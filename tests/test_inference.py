"""Belief-process engine: exact Gaussian jumps, hurdles, diagnostics."""

import contextlib
import csv
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rnemarket import cli, inference, market
from rnemarket.anomalies import default_grid
from rnemarket.cli import main
from rnemarket.inference import (
    CSV_BLOCK,
    InferenceParams,
    InputError,
    Milestones,
    certainty_tracker,
    event_dominance_loglr,
    expit,
    logit,
    loglr_law,
    posterior_from_loglr,
    redundancy_gap_growth,
    redundancy_ode_residual,
    window_check,
    text_17g,
    write_csv,
    _format_17g,
)
from rnemarket.pricing import PricingParams, simulate_price_path

SIGMA = 0.5
SPEED = SIGMA * SIGMA / 2  # 0.125
EPS = np.finfo(float).eps


def test_default_milestones_match_their_definitions():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    assert m.H_p == pytest.approx(math.log(0.51 / 0.49), abs=1e-15)
    assert m.t_p == pytest.approx(math.log(0.51 / 0.49) / SPEED, abs=1e-12)
    assert m.t_K == pytest.approx(math.log(1.5) / SPEED, abs=1e-12)
    assert m.t_rho == pytest.approx(math.log(9.0) / SPEED, abs=1e-12)
    # hurdle composition: pricing-side hurdles stack bias and risk terms
    assert m.t_Pi_plus == pytest.approx(m.t_rho + m.t_K + m.t_p, abs=1e-12)
    assert m.t_Pi_minus == pytest.approx(m.t_rho - m.t_K + m.t_p, abs=1e-12)


def test_window_boundaries_for_default_params():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    lo = m.t_p / 0.2
    hi = m.t_rho / 5.0
    assert window_check(2.4, m)
    assert window_check(lo + 1e-9, m) and window_check(hi - 1e-9, m)
    assert not window_check(lo - 1e-9, m)
    assert not window_check(hi + 1e-9, m)
    # 0.6 is too early (prior still matters), 8.0 is too late (bias fading)
    assert not window_check(0.6, m)
    assert not window_check(8.0, m)


def _same_double(a, b):
    return type(a) is np.float64 and (
        np.isnan(a) and np.isnan(b) or np.float64(a).tobytes() == np.float64(b).tobytes()
    )


@given(st.one_of(st.floats(-750, 750), st.floats()), st.one_of(st.floats(0, 1), st.floats()))
def test_expit_and_logit_give_scipys_bits_on_python_floats(x, p):
    assert _same_double(expit(x), sc.expit(x))
    assert _same_double(logit(p), sc.logit(p))


def test_expit_and_logit_give_scipys_bits_across_their_range():
    # numpy's exp disagrees with the C library's on about 4% of such inputs
    # and its log on about 0.2%, so a slip onto the numpy path shows here
    rng = np.random.default_rng(0)
    for x in rng.uniform(-750, 750, 10_000).tolist():
        assert _same_double(expit(x), sc.expit(x))
    for p in rng.random(10_000).tolist():
        assert _same_double(logit(p), sc.logit(p))


# numpy's vectorised exp, log and log1p may differ from the C library's by one
# ulp. expit: that ulp of exp(-x) plus one rounding each in 1 + e and
# 1/(1 + e) on either side gives 3 eps relative, and one subnormal step where
# the result underflows. logit: one ulp of the result off the central branch;
# on it log1p(s) and log1p(-s) have opposite signs, so their ulps plus the
# rounding of the difference stay within 2 eps of the result.
@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(-800, 800)))
def test_expit_on_arrays_is_within_three_eps_of_scipy(x):
    ours, ref = expit(x), sc.expit(x)
    assert isinstance(ours, np.ndarray) and ours.shape == x.shape
    assert np.all(np.abs(ours - ref) <= 3 * EPS * ref + np.nextafter(0.0, 1.0))


@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(0, 1)))
def test_logit_on_arrays_is_within_two_eps_of_scipy(p):
    ours, ref = logit(p), sc.logit(p)
    assert isinstance(ours, np.ndarray) and ours.shape == p.shape
    fin = np.isfinite(ref)
    assert np.array_equal(ours[~fin], ref[~fin])
    assert np.all(np.abs(ours[fin] - ref[fin]) <= 2 * EPS * np.abs(ref[fin]))


def test_expit_and_logit_ends_match_scipy_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, ends in ((expit, [-1000.0, 1000.0]), (logit, [0.0, 1.0])):
            for x in (*ends, np.array(ends)):
                assert np.array_equal(f(x), getattr(sc, f.__name__)(x))
        assert (expit(-1000.0), expit(1000.0)) == (0.0, 1.0)
        assert (logit(0.0), logit(1.0)) == (-np.inf, np.inf)


def test_expit_and_logit_of_a_scalar_are_scalars():
    for f in (expit, logit):
        for x in (0.3, np.float64(0.3), np.array(0.3)):
            assert type(f(x)) is np.float64


def test_posterior_from_loglr_is_exact_bayes():
    prior = 0.2
    odds = prior / (1 - prior)
    for l in (-3.0, 0.0, 0.7, 30.0):
        post = posterior_from_loglr(odds, l)
        assert post == pytest.approx(odds * math.exp(l) / (1 + odds * math.exp(l)), rel=1e-14)
    assert posterior_from_loglr(odds, 0.0) == pytest.approx(prior, abs=1e-15)


@given(st.floats(-800, 800))
def test_posterior_saturates_without_overflow(l):
    post = posterior_from_loglr(1.0, l)
    assert 0.0 <= post <= 1.0
    assert np.isfinite(post)


def test_loglr_law_drift_sign_follows_outcome():
    mu1, sd1 = loglr_law(2.4, 1, SIGMA)
    mu0, sd0 = loglr_law(2.4, 0, SIGMA)
    assert mu1 == pytest.approx(SPEED * 2.4, abs=1e-15)
    assert mu0 == pytest.approx(-SPEED * 2.4, abs=1e-15)
    assert sd1 == sd0 == pytest.approx(SIGMA * math.sqrt(2.4), abs=1e-15)


def test_interval_variances_honor_schedule():
    params = InferenceParams(
        sigma_lZ=0.0, sigma_lD=0.5, schedule=((2.0, 0.0, 0.3), (5.0, 0.1, 0.0))
    )
    times, cols = params.path_grid([6.0])
    assert np.array_equal(times, [0.0, 2.0, 5.0, 6.0]) and np.array_equal(cols, [3])
    var_z, var_d = params.interval_variances(times)
    assert var_d.sum() == pytest.approx(0.25 * 2 + 0.09 * 3 + 0.0 * 1, abs=1e-14)
    assert var_z.sum() == pytest.approx(0.01 * 1, abs=1e-14)
    assert params.sigma_at(1.9) == (0.0, 0.5)
    assert params.sigma_at(2.0) == (0.0, 0.3)
    # the law of l_5.5: the variance built up over [0, 5.5), not the pair live at 5.5
    want = math.sqrt((0.25 * 2 + 0.09 * 3 + 0.01 * 0.5) / 5.5)
    assert params.sigma_l_total(5.5) == pytest.approx(want, abs=1e-15)
    # one pair live on all of [0, t): its hypot, to the last bit
    assert params.sigma_l_total(2.0) == 0.5 and params.sigma_l_total(0.0) == 0.5


def test_schedule_must_increase():
    with pytest.raises(InputError):
        InferenceParams(schedule=((2.0, 0, 0.3), (2.0, 0, 0.2)))
    with pytest.raises(InputError):
        InferenceParams(sigma_lD=-0.1)


def test_belief_path_is_deterministic_and_odds_consistent():
    params = InferenceParams(dt=0.01, t_max=3.0)
    a = simulate_price_path(params, PricingParams(), 1, seed=7, pi0=0.3)
    b = simulate_price_path(params, PricingParams(), 1, seed=7, pi0=0.3)
    assert np.array_equal(a.loglr, b.loglr)
    odds = 0.3 / 0.7
    implied = odds * np.exp(a.loglr)
    assert np.allclose(a.pi / (1 - a.pi), implied, rtol=1e-10)


def test_belief_path_record_times_mode():
    params = InferenceParams(t_max=10.0)
    run = simulate_price_path(
        params, PricingParams(), 0, seed=11, record_times=[0.6, 1.2, 2.4, 8.0], pi0=0.49
    )
    assert np.array_equal(run.t, [0.6, 1.2, 2.4, 8.0])
    assert run.b == 0


def test_belief_path_ensemble_matches_gaussian_law():
    # 4000 one-jump paths straight to t=2.4; mean and variance of the log-LR
    params = InferenceParams(t_max=10.0)
    rng = np.random.default_rng(5)
    pricing = PricingParams()
    ls = np.array([
        simulate_price_path(params, pricing, 1, seed=rng, record_times=[2.4], pi0=0.49).loglr[0]
        for _ in range(4000)
    ])
    mu, sd = loglr_law(2.4, 1, SIGMA)
    assert abs(ls.mean() - mu) <= 3 * sd / math.sqrt(len(ls))
    assert abs(ls.std(ddof=1) - sd) <= 3 * sd / math.sqrt(2 * len(ls))


def test_switched_off_signal_stalls_resolution():
    # inference resolves while the signal-to-noise is live, so that the
    # cumulative variance keeps growing; a schedule that switches it off stalls it
    slz, sld = InferenceParams().sigma_at(5.0)
    assert slz * slz + sld * sld > 0.0
    stalled = InferenceParams(schedule=((1.0, 0.0, 0.0),))
    slz, sld = stalled.sigma_at(5.0)
    assert slz * slz + sld * sld == 0.0
    var_z, var_d = stalled.interval_variances(stalled.path_grid([5.0])[0])
    assert var_z.sum() + var_d.sum() == pytest.approx(0.25, abs=1e-14)


def test_certainty_tracker_crosses_zero_at_the_hurdle_time():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    at_hurdle = certainty_tracker(m.t_p, m, 1, SIGMA)
    assert at_hurdle == pytest.approx(0.0, abs=1e-12)
    # confirming evidence: gap still open before the hurdle, crossed after;
    # disconfirming evidence never closes it
    assert certainty_tracker(0.5 * m.t_p, m, 1, SIGMA) > 0
    assert certainty_tracker(2 * m.t_p, m, 1, SIGMA) < 0
    for t in (0.5 * m.t_p, 2 * m.t_p, 10 * m.t_p):
        assert certainty_tracker(t, m, 0, SIGMA) > 0


def test_event_dominance_positive_in_window():
    m = Milestones.from_params(0.49, 9.0, 1.5, SIGMA)
    # in-window hit dominates later and earlier off-window alternatives
    assert event_dominance_loglr(2.4, 1.0, m, SIGMA, branch=1) > 0
    with pytest.raises(InputError):
        event_dominance_loglr(2.4, 3.0, m, SIGMA, branch=-1)


def test_redundancy_ode_family_solves_and_identity_is_special():
    grid = np.linspace(-5, 5, 101)
    # the family solves the ODE exactly; what remains is central-difference
    # noise, a couple orders above machine epsilon
    for b in (1, 0):
        for gp0 in (1.0, 0.5, 0.1):
            assert redundancy_ode_residual(gp0, grid, b=b) < 1e-6
        # only the identity keeps the two log-odds within a bounded gap
        assert redundancy_gap_growth(1.0, b=b) < 1e-9
        assert redundancy_gap_growth(0.5, b=b) > 10.0


# floats whose 17-digit text is easy to get wrong: NaN, infinities, signed
# zero, subnormals, the normal edge, integer-valued floats at and past 2**53
_EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
    1e16, 2.0**53, 2.0**53 + 2, 1e17, -123456789012345678.0, 1.7976931348623157e308, 0.1,
]


def _reference_csv(path, header, columns, n, append):
    """The per-row csv.writer form: 17 digits per float, raw value otherwise."""
    cols = [c if isinstance(c, np.ndarray) else [c] * n for c in columns]
    with open(path, "a" if append else "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if not append:
            w.writerow(header)
        for i in range(n):
            w.writerow([format(c[i], ".17g") if isinstance(c[i], float) else c[i] for c in cols])


def _column(kind, n, rng, extra):
    if kind == "float":
        pool = np.array(_EDGE_FLOATS + extra)
        # random bit patterns cover every exponent, subnormal and NaN payload
        bits = rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)
        return np.where(rng.random(n) < 0.5, pool[rng.integers(len(pool), size=n)], bits)
    if kind == "uint64":
        col = rng.integers(0, 2**64, size=n, dtype=np.uint64)
        col[0] = 2**64 - 1
        return col
    if kind == "int64":
        return rng.integers(-(2**63), 2**63, size=n, dtype=np.int64)
    if kind == "pyint":
        return np.array([0, 2**64 - 1, 2**63 + 1, 7], dtype=object)[rng.integers(4, size=n)]
    if kind == "str":
        return np.array(["momentum_plus", "volatility", "", "a_b"])[rng.integers(4, size=n)]
    if kind == "float_scalar":
        return float(extra[0]) if extra else -0.0
    if kind == "int_scalar":
        return 2**64 - 1
    return "momentum_minus"


_KINDS = ("float", "uint64", "int64", "pyint", "str", "float_scalar", "int_scalar", "str_scalar")


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1, 3 * CSV_BLOCK + 1])
    | st.integers(1, 40),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=7).map(lambda k: ["float"] + k),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_the_per_row_csv_writer(tmp_path_factory, n, kinds, extra, seed):
    rng = np.random.default_rng(seed)
    header = [f"c{i}" for i in range(len(kinds))]
    d = tmp_path_factory.mktemp("csv")
    got, want = d / "got.csv", d / "want.csv"
    for m, append in ((n, False), (n // 2 + 1, True)):
        cols = [_column(k, m, rng, extra) for k in kinds]
        write_csv(got, header, cols, append=append)
        _reference_csv(want, header, cols, m, append)
        assert got.read_bytes() == want.read_bytes()
    # appending added rows and no second header
    assert got.read_text().splitlines().count(",".join(header)) == 1


def test_write_csv_rejects_columns_of_different_lengths(tmp_path):
    with pytest.raises(InputError):
        write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])
    with pytest.raises(InputError):
        write_csv(tmp_path / "x.csv", ["a"], ["only a scalar"])


def _kernel_text(x):
    """The text _format_17g gives each value of x, as bytes."""
    rows = _format_17g(np.asarray(x, np.float64))
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").split(b"\n")[:-1]


def _assert_formats_like_python(x, name=""):
    x = np.asarray(x, np.float64)
    want = [f"{v:.17g}".encode() for v in x.tolist()]
    got = _kernel_text(x)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, (name, bad[:5])


def _neighbours(x, ulps=3):
    """x and the ulps doubles on either side of each of its values."""
    out = [np.asarray(x, np.float64)]
    for direction in (-np.inf, np.inf):
        y = out[0]
        for _ in range(ulps):
            y = np.nextafter(y, direction)
            out.append(y)
    return np.concatenate(out)


def test_format_17g_matches_python_on_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    _assert_formats_like_python(bits.view(np.float64))  # both signs, nan and inf among them


def test_format_17g_matches_python_at_its_edges():
    rng = np.random.default_rng(18)
    pow10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    exact = rng.integers(2**53, 2**63, size=20_000, dtype=np.int64).astype(np.float64)
    subnormal = rng.integers(1, 2**52, size=5_000, dtype=np.uint64).view(np.float64)
    cases = {
        "powers of ten": _neighbours(pow10, 1),
        "powers of two, whose 5**k digits give ties": np.ldexp(1.0, np.arange(-1074, 1024)),
        "fixed and e notation switch": _neighbours([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5]),
        "integers from 2**53 to 2**63": np.concatenate(
            [exact, _neighbours(2.0 ** np.arange(53, 64))]),
        "subnormals": np.concatenate([subnormal, _neighbours([5e-324, 2.2250738585072014e-308])]),
        "zeros and non-finite": [0.0, -0.0, math.inf, -math.inf, math.nan],
        "the ends of the fast range": _neighbours([1e-280, 1e280]),
    }
    for name, x in cases.items():
        x = np.asarray(x, np.float64)
        _assert_formats_like_python(np.concatenate([x, -x]), name)


def _near_ties(spread=64):
    """Doubles x whose scaled value |x| * 10**(16 - E) lies within spread / q
    of a half-integer, q = 5**K (|x| >= 1e36) or 2**B (|x| < 1e-7): closer
    than the kernel's error, so only the margin keeps them off its fast path.
    """
    out = []
    for K in range(20, 25):  # x = m * 2**g, scaled m * 2**(g - K) / 5**K
        q = 5**K
        for g in range(K, 120):
            lo = max(-(-(10 ** (K + 16)) // 2**g), 2**52)
            hi = min((10 ** (K + 17) - 1) // 2**g, 2**53 - 1)
            if lo <= hi:
                inv = pow(2 ** (g - K), -1, q)
                m = [(q // 2 + d) * inv % q for d in range(-spread, spread + 1)]
                out += [float(v) * 2.0**g for v in m if lo <= v <= hi]
    for k in range(23, 40):  # x = m * 2**-(B + k), scaled m * 5**k / 2**B
        for B in range(54, 59):
            q = 2**B
            lo = max(-(-(10**16 * q) // 5**k), 2**52)
            hi = min((10**17 * q - 1) // 5**k, 2**53 - 1)
            if lo <= hi:
                inv = pow(5**k, -1, q)
                m = [(q // 2 + d) * inv % q for d in range(-spread, spread + 1)]
                out += [float(v) * 2.0 ** -(B + k) for v in m if lo <= v <= hi]
    return np.array(out)


def test_format_17g_rounds_ties_and_near_ties_like_python():
    # odd m * 2**-j with m * 5**j in [1e17, 1e18) has exactly 18 significant
    # digits, the last a 5: .17g rounds it half-even
    rng = np.random.default_rng(19)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-(10**17) // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        m = rng.integers(lo // 2, hi // 2, size=200) * 2 + 1
        ties.append(np.ldexp(m[(m >= lo) & (m <= hi)].astype(np.float64), -j))
    ties = np.concatenate(ties + [_near_ties()])
    assert len(ties) > 4_000
    _assert_formats_like_python(np.concatenate([ties, -ties]))


def test_format_17g_certifies_nearly_every_curve_value(tmp_path, monkeypatch):
    """The kernel, not Python's formatter, writes the analytic curves."""
    counts = {"floats": 0, "python": 0}
    kernel, python = inference._format_17g, inference._python_17g

    def count_floats(x):
        counts["floats"] += len(x)
        return kernel(x)

    def count_python(x):
        counts["python"] += len(x)
        return python(x)

    monkeypatch.setattr(inference, "_format_17g", count_floats)
    monkeypatch.setattr(inference, "_python_17g", count_python)
    # the counts are this process's: no forked child writes a lattice file
    monkeypatch.setattr(market, "_usable_cpus", lambda: 1)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("curves.rho_list = 3, 9, 27\ncurves.K_list = 1.2, 1.5, 1.9\n"
                   "curves.grid_points = 2000\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["curves", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    # 9 files of rp and weight over 1,999 + 1,999 + 1,000 levels, the text of
    # the momentum level grid made once (the volatility levels are a prefix
    # of it), and 27 peak rows of 8 floats
    assert counts["floats"] == 9 * 2 * (1_999 + 1_999 + 1_000) + 1_999 + 27 * 8
    assert counts["python"] <= 1e-4 * counts["floats"], counts


def test_a_float_column_and_its_text_write_the_same_bytes(tmp_path):
    rng = np.random.default_rng(21)
    edges = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 2.0**-25, 1e300])
    bits = rng.integers(0, 2**64, size=2 * CSV_BLOCK + 3, dtype=np.uint64).view(np.float64)
    x = np.concatenate([edges, -edges, bits, default_grid("momentum_plus", 1e-3)])
    text = text_17g(x)
    assert text.dtype == "S24"
    assert text.tolist() == [f"{v:.17g}".encode() for v in x.tolist()]
    others = ["momentum_plus", rng.standard_normal(len(x))]
    write_csv(tmp_path / "float.csv", ["kind", "v", "rp"], [others[0], x, others[1]])
    write_csv(tmp_path / "text.csv", ["kind", "v", "rp"], [others[0], text, others[1]])
    assert (tmp_path / "float.csv").read_bytes() == (tmp_path / "text.csv").read_bytes()


def test_int8_text_table_is_str_of_every_value(tmp_path):
    values = np.arange(256, dtype=np.uint8).view(np.int8)
    want = [str(v).encode() for v in values.tolist()]
    assert inference._format_tables()["int8"].tolist() == want
    write_csv(tmp_path / "b.csv", ["b"], [values])
    assert (tmp_path / "b.csv").read_bytes().split(b"\n")[1:-1] == want


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    """Formatting holds one block of CSV_BLOCK rows at a time."""
    rng = np.random.default_rng(20)

    def peak(n):
        cols = ["momentum_plus", rng.standard_normal(n), rng.random(n) * 1e-40,
                rng.integers(0, 2**63, n), rng.random(n)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / f"{n}.csv", ["a", "b", "c", "d", "e"], cols)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(CSV_BLOCK)  # builds the kernel's tables
    small, large = peak(8 * CSV_BLOCK), peak(32 * CSV_BLOCK)
    # within 5% of each other: a formatter that held every row would need 4x
    assert large <= 1.05 * small, (small, large)
