"""SHA-256 of every artifact of every subcommand on small fixed configs.

    PYTHONPATH=src python tools/artifact_digests.py

Runs simulate, curves, cohorts, estimate and validate through
rnemarket.cli.main in a temporary directory (2e4 assets, seed 112,
n_boot 50, grid_points 200, threads 2), then estimate once more at 1e4
assets and seed 7, where the estimate takes the best lower-confidence-bound
bin and some resamples take the fold-median fallback, estimate at
pricing.K 1, where the point estimate and 40 of the 50 resamples take
the fold-median fallback (the point estimate's median read through the
category table), and again at 20,001 assets, where that median is one
order statistic rather than the mean of two, simulate once more
with a Z-stream (pricing.sigma_Z 0.1, a two-entry inference.schedule),
whose assets draw 2 + 2 * n_intervals numbers instead of 2 + n_intervals,
curves on the benchmark's 3x3 lattice (rho 3, 9, 27 x K 1.2, 1.5, 1.9)
at 2,000 grid points, whose files hold floats of both signs from about
1e-64 to 37, and curves, estimate and simulate under inference.schedule
1.005:0:0.2, whose breakpoint lies before curves.t and off the dt grid:
the analytic side reads the law of l_t built over [0, t), and the dense
price paths' grid holds the breakpoint, and simulate and cohorts at 1,000
and 8,192 assets, inside one 4,096-asset block and on a block edge, and
validate under market.b_measure reference and rne, so that every line of
validate_report.txt is pinned under each measure. Prints
each subcommand's exit code, then one `sha256  run/file` line per
artifact, so the diff of two checkouts' outputs names every artifact that
changed. Exits 1 if any subcommand exits non-zero. Not part of the test
suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from rnemarket.cli import main as cli_main

BASE = {
    "market.n_assets": 20_000,
    "seed": 112,
    "estimation.n_boot": 50,
    "curves.grid_points": 200,
    "threads": 2,
}
RUNS = [(cmd, cmd, {}) for cmd in ("simulate", "curves", "cohorts", "estimate", "validate")]
RUNS += [(f"validate-{m}", "validate", {"market.b_measure": m}) for m in ("reference", "rne")]
RUNS.append(("estimate-1e4-seed7", "estimate", {"market.n_assets": 10_000, "seed": 7}))
RUNS.append(("estimate-K1", "estimate", {"pricing.K": 1}))
RUNS.append(("estimate-K1-odd", "estimate", {"pricing.K": 1, "market.n_assets": 20_001}))
RUNS.append(("simulate-z-stream", "simulate", {
    "pricing.sigma_Z": 0.1,
    "inference.schedule": "1.0:0.3:0.4, 3.0:0.5:0.2",
}))
RUNS.append(("curves-lattice", "curves", {
    "curves.rho_list": "3, 9, 27",
    "curves.K_list": "1.2, 1.5, 1.9",
    "curves.grid_points": 2_000,
}))
RUNS += [(f"{cmd}-schedule", cmd, {"inference.schedule": "1.005:0:0.2"})
         for cmd in ("curves", "estimate", "simulate")]
RUNS += [(f"{cmd}-{n}", cmd, {"market.n_assets": n})
         for n in (1_000, 8_192) for cmd in ("simulate", "cohorts")]


def main() -> int:
    lines, failed = [], False
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd, overrides in RUNS:
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**BASE, **overrides}.items()))
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([cmd, "--config", str(cfg), "--out-dir", str(out)])
            print(f"exit {code}  {name}")
            failed |= code != 0
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
