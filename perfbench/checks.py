"""Output checks for the benchmark workloads.

Each checker reads the artifacts one CLI command wrote into its output
directory and returns a list of problems; an empty list means the command's
output is correct. The checkers use only the standard library, so the
benchmark process never imports numpy or the program itself.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

ESTIMATE_COLUMNS = [
    "K_true", "rho_true", "K_hat", "rho_hat", "v_max", "rp_max",
    "K_ci_lo", "K_ci_hi", "rho_ci_lo", "rho_ci_hi", "n_assets", "seed",
]
CURVE_COLUMNS = ["kind", "v", "rp", "weight"]
PEAK_COLUMNS = [
    "rho", "K", "kind", "v_max", "rp_max", "v_formula", "formula_value",
    "abs_gap", "v_abs_gap",
]
CURVE_KINDS = ("momentum_plus", "momentum_minus", "volatility")
MAX_PROBLEMS = 5


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _exact_float(text: str) -> float:
    """Parse a 17-significant-digit field; reject any text the writer would not emit."""
    x = float(text)
    if not math.isfinite(x) or "%.17g" % x != text:
        raise ValueError(f"{text!r} does not round-trip")
    return x


class _Problems(list):
    def add(self, msg: str) -> bool:
        """Record a problem; True once enough are recorded to stop scanning."""
        self.append(msg)
        return len(self) >= MAX_PROBLEMS


def check_estimate(out: Path, cfg: dict) -> list:
    """estimate.csv from `estimate`: 12 columns, sane estimate and CIs, echoed inputs."""
    path = out / "estimate.csv"
    if not path.is_file():
        return ["estimate.csv missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ESTIMATE_COLUMNS:
        return ["estimate.csv header differs from the 12 documented columns"]
    if len(rows) != 2 or len(rows[1]) != len(ESTIMATE_COLUMNS):
        return [f"estimate.csv has {len(rows) - 1} data rows, expected 1"]
    rec = dict(zip(ESTIMATE_COLUMNS, rows[1]))
    probs = []
    try:
        vals = {k: _exact_float(rec[k]) for k in ESTIMATE_COLUMNS[:10]}
    except ValueError as e:
        return [f"estimate.csv: {e}"]
    if not vals["K_hat"] >= 1:
        probs.append(f"K_hat = {vals['K_hat']!r} is below 1")
    if not vals["rho_hat"] > 0:
        probs.append(f"rho_hat = {vals['rho_hat']!r} is not positive")
    for name in ("K", "rho"):
        lo, hi = vals[f"{name}_ci_lo"], vals[f"{name}_ci_hi"]
        if not lo <= hi:
            probs.append(f"{name} CI [{lo!r}, {hi!r}] is inverted")
    if vals["K_true"] != cfg["pricing.K"] or vals["rho_true"] != cfg["market.rho"]:
        probs.append("K_true/rho_true differ from the config")
    if rec["n_assets"] != str(cfg["market.n_assets"]):
        probs.append(f"n_assets {rec['n_assets']} differs from the config")
    if rec["seed"] != str(cfg["seed"]):
        probs.append(f"seed {rec['seed']} differs from the config")
    return probs


def _grid_len(start: float, stop: float, step: float) -> int:
    # numpy.arange's length rule, which the curves writer's grids follow
    return max(0, math.ceil((stop - start) / step))


def curve_file_name(rho: float, K: float) -> str:
    return f"curve_rho{rho:g}_K{K:g}.csv"


def curve_rows_expected(cfg: dict) -> int:
    """Data rows of one curve CSV: two momentum grids and one volatility grid."""
    step = 1.0 / cfg["curves.grid_points"]
    return 2 * _grid_len(step, 1.0, step) + _grid_len(step, 0.5 + step / 2, step)


def check_curves(out: Path, cfg: dict) -> list:
    """Curve CSVs and peaks.csv from `curves`: file set, row counts, finiteness, peaks."""
    lattice = [(rho, K) for rho in cfg["curves.rho_list"] for K in cfg["curves.K_list"]]
    expected = {curve_file_name(rho, K) for rho, K in lattice}
    wanted = expected | {"peaks.csv"}
    present = {p.name for p in out.glob("*.csv")}
    if present != wanted:
        return [f"csv file set differs: extra {sorted(present - wanted)}, "
                f"missing {sorted(wanted - present)}"]
    n_rows = curve_rows_expected(cfg)
    probs = _Problems()
    for name in sorted(expected):
        with open(out / name, newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != CURVE_COLUMNS:
                probs.add(f"{name}: header differs")
                continue
            count = 0
            for i, r in enumerate(rows, start=2):
                count += 1
                try:
                    if len(r) != 4 or r[0] not in CURVE_KINDS:
                        raise ValueError("malformed row")
                    v = _exact_float(r[1])
                    _exact_float(r[2])
                    _exact_float(r[3])
                    if not 0 < v < 1:
                        raise ValueError(f"v = {v!r} outside (0, 1)")
                except ValueError as e:
                    if probs.add(f"{name} line {i}: {e}"):
                        return probs
        if count != n_rows:
            probs.add(f"{name}: {count} rows, expected {n_rows}")
    return probs + _check_peaks(out / "peaks.csv", lattice, cfg["pricing.S_delta"])


def _check_peaks(path: Path, lattice: list, S_delta: float) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != PEAK_COLUMNS:
        return ["peaks.csv header differs"]
    body = rows[1:]
    if len(body) != 3 * len(lattice):
        return [f"peaks.csv has {len(body)} rows, expected {3 * len(lattice)}"]
    peaks = {}
    for i, r in enumerate(body, start=2):
        try:
            if len(r) != len(PEAK_COLUMNS) or r[2] not in CURVE_KINDS:
                raise ValueError("malformed row")
            vals = [_exact_float(x) for x in r[:2] + r[3:]]
        except ValueError as e:
            return [f"peaks.csv line {i}: {e}"]
        peaks[(vals[0], vals[1], r[2])] = dict(zip(PEAK_COLUMNS[3:], vals[2:]))
    if (9.0, 1.5) not in lattice:
        return []
    # the validate subcommand's bounds at the paper's reference point
    probs = []
    for kind in ("momentum_plus", "momentum_minus"):
        p = peaks.get((9.0, 1.5, kind))
        if p is None:
            probs.append(f"peaks.csv lacks rho=9 K=1.5 {kind}")
        elif not max(p["v_abs_gap"], p["abs_gap"] / S_delta) <= 1e-3:
            probs.append(f"rho=9 K=1.5 {kind} peak gap exceeds 1e-3")
    p = peaks.get((9.0, 1.5, "volatility"))
    target = 0.1 * S_delta
    if p is None:
        probs.append("peaks.csv lacks rho=9 K=1.5 volatility")
    elif not (abs(p["v_max"] - 0.1) <= 0.02 and abs(p["rp_max"] - target) <= 0.1 * target):
        probs.append(f"rho=9 K=1.5 volatility peak ({p['v_max']!r}, {p['rp_max']!r}) "
                     "is not near (0.1, 0.1 S_delta)")
    return probs
