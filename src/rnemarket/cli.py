"""Config-driven experiment runner.

One flat key-value config file drives five subcommands (simulate, curves,
cohorts, estimate, validate). Everything that affects output lives in the
config or the documented flags; no environment variable changes an
artifact, and for a fixed (config, seed) the emitted CSVs are byte-identical.
The thread budget (threads, --threads) steers nothing: every panel is
simulated block by block (see market.simulate_blocks), and each subcommand
keeps only what it reads of the blocks (validate, through market's claims).
curves and estimate split their lattice points and the panel's blocks into
one fixed share per usable CPU, each run by its own forked process (see
market._run_shares), with byte-identical files whatever the CPU count.
OpenBLAS defaults to one thread, since nothing here gains from its pool.

Exit codes: 0 success, 2 config error, 3 validation/estimation failure,
4 resource guard.
"""

from __future__ import annotations

import argparse
import gc
import math
import mmap
import os
import sys
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import zip_longest
from pathlib import Path

# before numpy loads OpenBLAS; a value the user set stays
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from .anomalies import AnomalyParams, default_grid, lowrisk_peak, peak_report
from .estimation import (
    ShapeError,
    format_report,
    recover_params,
    roundtrip,
    write_roundtrip_csv,
)
from .inference import InferenceParams, InputError, Milestones, text_17g, write_csv
from .market import (
    MarketConfig,
    PricingParams,
    ResourceLimitError,
    TruthParams,
    cohort_table,
    expost_decomposition,
    measure_expost_excess,
    odds_deviation,
    priced_martingale_z,
    reference_martingale_z,
    simulate_blocks,
    sort_cohorts,
    write_cohorts_csv,
    write_panel_csv,
)
from .pricing import half_vol_gaps, ode_residuals, simulate_price_path, write_price_paths_csv
from . import anomalies, market


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# The finest analytic grid: curves holds about 100 bytes per grid point, so
# 10**6 points peak near 100 MB.
MAX_GRID_POINTS = 10**6
# Dense illustrative price paths written by simulate.
N_DENSE_PATHS = 10
# A dense path's time grid is one float64 array of n_steps + 1 values, whose
# size in bytes must fit an array index.
MAX_DENSE_STEPS = sys.maxsize // 8


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment configuration.

    market carries the simulation primitives; the remaining fields steer the
    analytic-curve lattice, the estimator, and execution. Derived quantities
    (priors, milestone times) are always recomputed from primitives; the
    config may state them, in which case they are cross-checked to 1e-12.
    threads is a no-op kept for existing configs and command lines: it is
    validated and echoed, and steers nothing (curves and estimate take
    their process count from the CPUs the process may use).
    sources maps each key parse_config read to its line or flag, so that a
    range error found later can name it.
    """

    market: MarketConfig
    estimation_t: float | None = None
    n_boot: int = 200
    curves_rho: tuple = (9.0,)
    curves_K: tuple = (1.5,)
    curves_t: float = 2.4
    grid_points: int = 1000
    seed: int = 0
    threads: int = 1
    sources: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_boot < 0:
            raise InputError("estimation.n_boot must be nonnegative", "n_boot")
        if self.grid_points < 10:
            raise InputError("curves.grid_points must be at least 10", "grid_points")
        if self.grid_points > MAX_GRID_POINTS:
            raise InputError(
                f"curves.grid_points must be at most {MAX_GRID_POINTS}", "grid_points"
            )
        if self.threads < 1:
            raise InputError("threads must be at least 1", "threads")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be an integer in [0, 2^64)", "seed")
        if not self.curves_rho:
            raise InputError("curves.rho_list must be nonempty", "curves_rho")
        if not self.curves_K:
            raise InputError("curves.K_list must be nonempty", "curves_K")

    def derived(self) -> dict:
        """The values the echo states beside the primitives.

        The echo must parse back, so a value that is not finite is an
        InputError naming the fields it comes from: a milestone time is a
        hurdle over sigma_l**2/2, and either can overflow.
        """
        mil = self.market.milestones(self.market.inference.sigma_l_total(0.0))
        if math.isinf(mil.H_p):  # a p1_0 this close to 0 is admitted only through rho
            raise InputError("p1_0 is so small that derived.t_p's hurdle "
                             "log((1 - p1_0) / p1_0) overflows",
                             "market.truth.p1_0", "market.truth.rho")
        for name in ("t_p", "t_K", "t_rho"):
            if not math.isfinite(getattr(mil, name)):
                raise InputError(f"sigma_l is so small that derived.{name} = "
                                 "hurdle / (sigma_l**2/2) overflows", "sigma_l")
        return {
            "pi1_0": self.market.truth.pi1_0,
            "Pi1_0_plus": self.market.Pi1_0(1),
            "Pi1_0_minus": self.market.Pi1_0(-1),
            "t_p": mil.t_p,
            "t_K": mil.t_K,
            "t_rho": mil.t_rho,
        }


def _parse_float_list(text: str) -> tuple:
    if not text.strip():
        return ()
    return tuple(float(tok) for tok in text.split(","))


def _parse_schedule(text: str) -> tuple:
    out = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) != 3:
            raise ValueError("schedule entries are t:sigma_lZ:sigma_lD")
        out.append(tuple(float(p) for p in parts))
    return tuple(out)


def _parse_t_or_auto(text: str):
    if text.strip().lower() == "auto":
        return None
    return float(text)


# key -> (parse, RunConfig attribute path). Order here is the canonical echo
# order. A key the config does not state takes the default of the dataclass
# field its path ends in.
_SCHEMA = {
    "market.n_assets": (int, "market.n_assets"),
    "market.p1_0": (float, "market.truth.p1_0"),
    "market.rho": (float, "market.truth.rho"),
    "market.sign_prob_plus": (float, "market.sign_prob_plus"),
    "market.b_measure": (str, "market.b_measure"),
    "market.record_times": (_parse_float_list, "market.record_times"),
    "market.n_bins": (int, "market.n_bins"),
    "market.n_min": (int, "market.n_min"),
    "market.max_asset_steps": (float, "market.max_asset_steps"),
    "pricing.K": (float, "market.pricing.K"),
    "pricing.S_delta": (float, "market.pricing.S_delta"),
    "pricing.bsure_premium_drift": (float, "market.pricing.bsure_premium_drift"),
    "pricing.rZ_delta": (float, "market.pricing.rZ_delta"),
    "pricing.sigma_Z": (float, "market.pricing.sigma_Z"),
    "pricing.y_minus0": (float, "market.pricing.y_minus0"),
    "pricing.t_max": (float, "market.pricing.t_max"),
    "inference.sigma_lZ": (float, "market.inference.sigma_lZ"),
    "inference.sigma_lD": (float, "market.inference.sigma_lD"),
    "inference.dt": (float, "market.inference.dt"),
    "inference.t_max": (float, "market.inference.t_max"),
    "inference.schedule": (_parse_schedule, "market.inference.schedule"),
    "estimation.t": (_parse_t_or_auto, "estimation_t"),
    "estimation.n_boot": (int, "n_boot"),
    "curves.rho_list": (_parse_float_list, "curves_rho"),
    "curves.K_list": (_parse_float_list, "curves_K"),
    "curves.t": (float, "curves_t"),
    "curves.grid_points": (int, "grid_points"),
    "seed": (int, "seed"),
    "threads": (int, "threads"),
}
# attribute path -> key, for naming the keys behind an InputError's fields
_KEY_AT = {path: key for key, (_, path) in _SCHEMA.items()}

_DERIVED_KEYS = ("pi1_0", "Pi1_0_plus", "Pi1_0_minus", "t_p", "t_K", "t_rho")

def _finite(value) -> bool:
    """False if a parsed value, or any float inside a list or schedule, is NaN or infinite."""
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


# the keys that set the beliefs' signal-to-noise at any time
_SIGMA_KEYS = ("inference.sigma_lZ", "inference.sigma_lD", "inference.schedule")
# the keys each field of a lattice curve's AnomalyParams comes from
_CURVE_KEYS = {
    "rho": "curves.rho_list", "K": "curves.K_list", "t": "curves.t",
    "sigma_l": _SIGMA_KEYS + ("curves.t",), "S_delta": "pricing.S_delta",
}


def _sourced(message: str, sources: dict, keys) -> ConfigError:
    """message, prefixed by the lines or flags (in document order) of the keys that set it."""
    named = [src for key, src in sources.items() if key in keys]
    return ConfigError(f"{', '.join(named)}: {message}" if named else message)


def _located(err: InputError, sources: dict, owner: str = "", aliases=None) -> ConfigError:
    """err, raised by the object at attribute path owner of a RunConfig, naming its lines.

    A field f of err is the key whose path is owner.f (a dotted field reaches
    into a part of owner); aliases maps a field to the key or keys it comes from.
    """
    keys = []
    for f in err.fields:
        found = (aliases or {}).get(f) or _KEY_AT.get(f"{owner}.{f}" if owner else f, ())
        keys += [found] if isinstance(found, str) else found
    return _sourced(str(err), sources, keys)


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse a key-value config document into a validated RunConfig.

    Lines are ``key = value``; ``#`` starts a comment; unknown or duplicate
    keys and malformed, non-finite or out-of-range values are rejected with
    their line number, and an error that involves several keys names the
    line of each one the document states; so does a derived value that is
    not finite (see RunConfig.derived). Stated ``derived.*`` values are
    checked against recomputation to 1e-12.
    overrides maps a key to (source, value), e.g. a command-line flag; it
    replaces the document's value and goes through the same checks, whose
    errors name the source.
    """
    values = {}
    derived_stated = {}
    where = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in where:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on {where[key]})"
            )
        where[key] = f"line {lineno}"
        name = key.removeprefix("derived.")
        if name != key:
            target, parse = derived_stated, float
            if name not in _DERIVED_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        elif key in _SCHEMA:
            target, parse = values, _SCHEMA[key][0]
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            parsed = parse(val)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {e}") from e
        if not _finite(parsed):
            raise ConfigError(f"line {lineno}: non-finite value for {key!r}: {val!r}")
        target[name] = parsed
    for key, (source, value) in (overrides or {}).items():
        values[key] = value
        where[key] = source

    # the stated values, as keyword arguments of the part that owns them
    kwargs = {}
    for key, value in values.items():
        owner, _, name = _SCHEMA[key][1].rpartition(".")
        kwargs.setdefault(owner, {})[name] = value

    def build(owner: str, make, **parts):
        try:
            return make(**kwargs.get(owner, {}), **parts)
        except InputError as e:
            raise _located(e, where, owner) from e

    inference = build("market.inference", InferenceParams)
    truth = build("market.truth", TruthParams)
    pricing = build("market.pricing", PricingParams)
    market_config = build("market", MarketConfig, truth=truth, pricing=pricing,
                          inference=inference)
    rc = build("", RunConfig, market=market_config, sources=where)
    try:
        derived = rc.derived()
    except InputError as e:
        raise _located(e, where, aliases={"sigma_l": _SIGMA_KEYS}) from e
    for name, stated in derived_stated.items():
        actual = derived[name]
        if abs(stated - actual) > 1e-12 * max(1.0, abs(actual)):
            raise _sourced(
                f"derived.{name} = {stated!r} is inconsistent with the primitives "
                f"(recomputed {actual!r})",
                where, (f"derived.{name}",),
            )
    return rc


def _fmt(value) -> str:
    """A config value as text: exact float round trip, lists joined by ", ",
    schedule entries by ":", and no value (estimation.t) as auto."""
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(repr(float(x)) for x in v) if isinstance(v, tuple) else repr(float(v))
            for v in value
        )
    return repr(value) if isinstance(value, float) else str(value)


def echo_config(rc: RunConfig) -> str:
    """Canonical text form: every key, schema order, exact float round-trip.

    parse_config(echo_config(rc)) reproduces rc, and echoing again is
    byte-identical (the schema round-trip fixed point).
    """
    lines = ["# canonical run configuration"]
    for key, (_, path) in _SCHEMA.items():
        lines.append(f"{key} = {_fmt(reduce(getattr, path.split('.'), rc))}")
    lines.append("# derived from the primitives above (informational, re-checked on parse)")
    for name, value in rc.derived().items():
        lines.append(f"derived.{name} = {repr(float(value))}")
    return "\n".join(lines) + "\n"


def _curve_params(rc: RunConfig, rho: float, K: float) -> AnomalyParams:
    """The analytic-curve parameters at curves.t; a range error names its config lines."""
    try:
        return AnomalyParams.from_primitives(
            rc.market.truth.p1_0,
            rho,
            K,
            rc.market.inference.sigma_l_total(rc.curves_t),
            rc.curves_t,
            S_delta=rc.market.pricing.S_delta,
        )
    except InputError as e:
        raise _located(e, rc.sources, aliases=_CURVE_KEYS) from e


def _cmd_simulate(rc: RunConfig, out: Path) -> int:
    blocks = simulate_blocks(rc.market, rc.seed)
    # the dense paths count against the step budget too, before anything is written
    inf, n_paths = rc.market.inference, min(N_DENSE_PATHS, rc.market.n_assets)
    n_steps = inf.dense_steps(min(inf.t_max, rc.market.pricing.t_max))
    if n_paths * n_steps > rc.market.max_asset_steps:
        raise ResourceLimitError(
            f"{n_paths} dense price paths x {n_steps} steps exceeds "
            f"max_asset_steps={rc.market.max_asset_steps:g}"
        )
    if n_steps >= MAX_DENSE_STEPS:  # whatever the budget
        raise ResourceLimitError(
            f"a dense price path of {n_steps:g} steps exceeds what an array can hold"
        )
    # each block's rows go out as they come: the file is asset-major
    for block in blocks:
        write_panel_csv(out / "panel.csv", block, append=block.first_id > 0)
        if block.first_id == 0:
            signs, outcomes = block.sign[:n_paths], block.B[:n_paths]
    # each dense path is written and dropped before the next is simulated
    detail = (
        simulate_price_path(rc.market.inference, rc.market.pricing, int(b),
                            np.random.default_rng([rc.seed, a, 0xDE7A11]),
                            sign_change=int(s), pi0=rc.market.truth.pi1_0)
        for a, (s, b) in enumerate(zip(signs, outcomes))
    )
    write_price_paths_csv(out / "price_paths.csv", detail)
    print(f"wrote {out / 'panel.csv'} ({rc.market.n_assets} assets x "
          f"{len(rc.market.record_times)} epochs)")
    print(f"wrote {out / 'price_paths.csv'} ({n_paths} illustrative dense paths)")
    return 0


def _cmd_curves(rc: RunConfig, out: Path) -> int:
    # a lattice point's file is named by its values in %g: two values that
    # print alike would write one file twice
    for key, values in (("curves.rho_list", rc.curves_rho), ("curves.K_list", rc.curves_K)):
        named = {}
        for v in values:
            text = f"{v:g}"
            if text in named:
                raise _sourced(f"{named[text]!r} and {v!r} both print as {text} in the curve "
                               "file names", rc.sources, (key,))
            named[text] = v
    step = 1.0 / rc.grid_points
    # every curve of a kind lies on default_grid(kind, step); the volatility
    # grid is a prefix of the momentum kinds', bit for bit (np.arange fills
    # step + i * step for both), so one text, made once, serves all three
    momentum = text_17g(default_grid("momentum_plus", step))
    grid_text = {"momentum_plus": momentum, "momentum_minus": momentum,
                 "volatility": momentum[: len(default_grid("volatility", step))]}
    # every lattice point's range errors come before any curve file is written
    lattice = [(rho, K, _curve_params(rc, rho, K)) for rho in rc.curves_rho for K in rc.curves_K]
    names = [out / f"curve_rho{rho:g}_K{K:g}.csv" for rho, K, _ in lattice]
    # each point's peak values per kind, in memory that forked children share
    peaks = np.frombuffer(mmap.mmap(-1, 8 * 18 * len(lattice))).reshape(-1, 3, 6)
    procs = min(market._usable_cpus(), len(lattice))

    # points k, k + procs, ..., one at a time: a fixed share, so every run
    # makes the same calls in each process
    def share(k: int) -> None:
        for (_, _, params), path, row in zip(lattice[k::procs], names[k::procs], peaks[k::procs]):
            columns = []  # the previous point's arrays are dropped here
            for kind, peak in zip(_KINDS, row):
                rep = peak_report(kind, params, step=step)
                curve = rep.pop("curve")  # its levels are written as grid_text
                columns.append([kind, grid_text[kind], curve.rp, curve.n])
                peak[:] = [rep[f] for f in _PEAK_FIELDS]
            del curve
            # the three writes back to back run faster than one after each curve
            for j, cols in enumerate(columns):
                write_csv(path, ["kind", "v", "rp", "weight"], cols, append=j > 0)

    market._run_shares(procs, share, lambda k: ", ".join(map(str, names[k::procs])))
    rho, K = (np.repeat([point[j] for point in lattice], 3) for j in (0, 1))
    write_csv(out / "peaks.csv", ["rho", "K", "kind", *_PEAK_FIELDS],
              [rho, K, np.tile(_KINDS, len(lattice)), *peaks.reshape(-1, 6).T])
    for name in names:
        print(f"wrote {name}")
    print(f"wrote {out / 'peaks.csv'}")
    return 0


_KINDS = ("momentum_plus", "momentum_minus", "volatility")
# the peak_report values of peaks.csv, in its column order
_PEAK_FIELDS = ("v_max", "rp_max", "v_formula", "formula_value", "abs_gap", "v_abs_gap")


def _cmd_cohorts(rc: RunConfig, out: Path) -> int:
    # every block's category tables add into the panel's: integer counts sum exactly
    sorts = {}
    for block in simulate_blocks(rc.market, rc.seed):
        for t in rc.market.record_times:
            for conditioning in ("pi_level", "volatility"):
                srt = sort_cohorts(block, t, conditioning=conditioning)
                _, table = sorts.get((t, conditioning), (None, 0))
                sorts[t, conditioning] = srt, table + cohort_table(srt)
    path, S_delta = out / "cohorts.csv", rc.market.pricing.S_delta
    for i, t in enumerate(rc.market.record_times):
        measured = {}
        for conditioning in ("pi_level", "volatility"):
            measured.update(measure_expost_excess(*sorts[t, conditioning], S_delta))
        write_cohorts_csv(path, measured, t, append=i > 0)
    print(f"wrote {path} ({len(rc.market.record_times)} epochs)")
    return 0


def _cmd_estimate(rc: RunConfig, out: Path) -> int:
    try:
        res = roundtrip(rc.market, rc.seed, t=rc.estimation_t, n_boot=rc.n_boot)
    except InputError as e:
        if not e.fields:
            raise
        raise _located(e, rc.sources, "market", aliases={"t": "estimation.t"}) from e
    except ShapeError as e:
        report = out / "estimate_FAILED.txt"
        with open(report, "w") as fh:
            fh.write(f"estimation failed: {e.reason}\n")
            curve = e.diagnostics.get("curve")
            for key, val in sorted(e.diagnostics.items()):
                if key != "curve":
                    fh.write(f"  {key} = {val}\n")
            if curve is not None:
                fh.write("curve (v, rp, se, n):\n")
                for i in range(len(curve.v)):
                    fh.write(
                        f"  {curve.v[i]:.6g} {curve.rp[i]:.6g} "
                        f"{curve.se[i]:.6g} {int(curve.n[i])}\n"
                    )
        print(f"estimation failed ({e.reason}); diagnostics in {report}", file=sys.stderr)
        return 3
    write_roundtrip_csv(out / "estimate.csv", res)
    report = format_report(res)
    (out / "estimate_report.txt").write_text(report + "\n")
    print(report)
    print(f"wrote {out / 'estimate.csv'}")
    return 0


def _validate_checks(rc: RunConfig):
    """The property suite behind the validate subcommand.

    Yields (name, passed, detail), fast enough for every build. The claims
    the acceptance tests share read their statistics from pricing and market.
    """
    dev = odds_deviation(replace(rc.market, n_assets=1000), rc.seed)
    yield "conserved priced-odds ratio (<=1e-12)", dev <= 1e-12, f"max rel dev {dev:.3g}"

    worst = max(half_vol_gaps((1.0, 1.2, 1.5, 1.9)))
    yield "peak-risk calibration at half-vol (<=1e-12)", worst <= 1e-12, f"max gap {worst:.3g}"

    r_plus, r_minus, r_bad = ode_residuals(np.linspace(0.05, 0.95, 19), 1.5)
    r_map = max(r_plus, r_minus)
    ok = r_map < 1e-6 and r_bad > 0.05
    yield "canonical pricing ODE", ok, f"map {r_map:.3g}, quadratic {r_bad:.3g}"

    params = _curve_params(rc, 9.0, 1.5)
    gaps = []
    for kind in ("momentum_plus", "momentum_minus"):
        rep = peak_report(kind, params)
        gaps += [rep["v_abs_gap"], rep["abs_gap"] / params.S_delta]
    ok = max(gaps) <= 1e-3
    yield "momentum peak formulas vs grid (<=1e-3)", ok, f"max gap {max(gaps):.3g}"

    rep = peak_report("volatility", params)
    target = 0.1 * params.S_delta
    ok = abs(rep["v_max"] - 0.1) <= 0.02 and abs(rep["rp_max"] - target) <= 0.1 * target
    yield "low-risk peak near (0.1, 0.1 S_delta)", ok, (
        f"v {rep['v_max']:.4f}, rp {rep['rp_max']:.4f}"
    )

    params1 = _curve_params(rc, 1.0, 1.5)
    rep1 = peak_report("volatility", params1)
    ok = abs(rep1["v_max"] - 0.5) <= 1e-9 and abs(rep1["rp_max"] - 0.1 * params1.S_delta) <= 1e-9
    yield "low-risk peak exact at rho=1", ok, f"v {rep1['v_max']:.6f}, rp {rep1['rp_max']:.6f}"

    worst = 0.0
    for rho in (1.0, 3.0, 9.0, 27.0):
        for K in (1.0, 1.2, 1.5, 1.9):
            v, rp = lowrisk_peak(rho, K, 1.0)
            rho_hat, K_hat = recover_params(v, rp, 1.0)
            worst = max(worst, abs(rho_hat - rho) / rho, abs(K_hat - K) / K)
    yield "peak inversion identity (<=1e-9)", worst <= 1e-9, f"max rel err {worst:.3g}"

    vgrid = np.linspace(0.05, 0.499, 10)
    mil = Milestones.from_params(params.p1_0, params.rho, params.K, params.sigma_l)
    mix = np.array([
        anomalies.momentum_mix(float(v), params.t, mil, params.rho, params.K, 1)
        for v in vgrid
    ])
    ok = bool(np.all(np.diff(mix) < 0) and mix[-1] < 1)
    yield "mix ratio monotone declining (K>1)", ok, (
        f"{mix[0]:.3g} at v={vgrid[0]:g} down to {mix[-1]:.3g} at v={vgrid[-1]:g}"
    )

    mc = replace(rc.market, n_assets=20_000)
    z_ref = reference_martingale_z(replace(mc, b_measure="reference"), rc.seed)
    yield "reference-measure belief martingale (3 SE)", z_ref <= 3.0, f"max |z| {z_ref:.2f}"

    z_rne = priced_martingale_z(replace(mc, b_measure="rne"), rc.seed)
    yield "priced-measure belief martingale (3 SE)", z_rne <= 3.0, f"max |z| {z_rne:.2f}"

    # the decomposition's residual has mean zero only when B is drawn from
    # the truth, so this check simulates under it whatever the config's measure
    cfg_small = replace(rc.market, n_assets=20_000, b_measure="truth")
    j_mid = min(2, len(rc.market.record_times) - 1)
    dec = expost_decomposition(simulate_blocks(cfg_small, rc.seed, epochs=[j_mid]),
                               rc.market.record_times[j_mid])
    z_dec = max(
        abs(dec[s]["residual"]) / dec[s]["residual_se"] for s in ("all", "plus", "minus")
    )
    yield "ex-post decomposition reconciles (3 SE)", z_dec <= 3.0, f"max |z| {z_dec:.2f}"

    # a stream that runs out before the other pairs a block with None
    cfg_tiny = replace(rc.market, n_assets=2000)
    pairs = zip_longest(simulate_blocks(cfg_tiny, rc.seed), simulate_blocks(cfg_tiny, rc.seed))
    same = all(
        a is not None and b is not None
        and all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("B", "sign", "loglr", "pi", "Pi", "S"))
        for a, b in pairs
    )
    yield "rerun determinism", same, "two simulations of one seed give identical panels"

    echoed = echo_config(rc)
    ok = echo_config(parse_config(echoed)) == echoed
    yield "config echo fixed point", ok, "parse -> echo -> parse is stable"

    lr = anomalies.event_lr_from_ratio(0.25, 3.0, 1)
    ok = abs(lr - 1.0 / 9.0) <= 1e-12
    yield "event likelihood-ratio spot value", ok, f"value {lr:.12f}"


def _cmd_validate(rc: RunConfig, out: Path) -> int:
    failures = 0
    lines = []
    for name, passed, detail in _validate_checks(rc):
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        line = f"{status}  {name}: {detail}"
        lines.append(line)
        print(line)
    (out / "validate_report.txt").write_text("\n".join(lines) + "\n")
    if failures:
        print(f"{failures} properties failed", file=sys.stderr)
        return 3
    print("all properties passed")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "curves": _cmd_curves,
    "cohorts": _cmd_cohorts,
    "estimate": _cmd_estimate,
    "validate": _cmd_validate,
}


def run_subcommand(cmd: str, rc: RunConfig, out_dir) -> int:
    """Dispatch one subcommand; returns the process exit code."""
    if cmd not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {cmd!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.txt").write_text(echo_config(rc))
    return _COMMANDS[cmd](rc, out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="rnemarket",
        description=__doc__.splitlines()[0],
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", metavar="PATH", help="key-value config file")
    ap.add_argument("--seed", type=int, metavar="U64", help="override config seed")
    ap.add_argument("--out-dir", default="out", metavar="PATH")
    ap.add_argument("--threads", type=int, metavar="N",
                    help="accepted, validated (at least 1) and echoed; steers nothing: "
                         "curves and estimate run one process per usable CPU")
    ap.add_argument("--grid-points", type=int, metavar="N",
                    help="override analytic grid resolution")
    args = ap.parse_args(argv)

    try:
        text = ""
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as e:
                raise ConfigError(f"cannot read config {args.config!r}: {e}") from e
        flags = {
            "seed": ("--seed", args.seed),
            "threads": ("--threads", args.threads),
            "curves.grid_points": ("--grid-points", args.grid_points),
        }
        rc = parse_config(text, {k: v for k, v in flags.items() if v[1] is not None})
        return run_subcommand(args.command, rc, args.out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource guard: {e}", file=sys.stderr)
        return 4


def console_main() -> int:
    """main() as the `rnemarket` script and `python -m rnemarket.cli` run it.

    gc.freeze() puts the objects the imports left out of the collector's
    reach (it stays on): no exit or forked-share collection walks them again.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(console_main())
