"""SHA-256 of every artifact of every subcommand on small fixed configs.

    PYTHONPATH=src python tools/artifact_digests.py

Runs simulate, curves, cohorts, estimate and validate through
rnemarket.cli.main in a temporary directory (2e4 assets, seed 112,
n_boot 50, grid_points 200, threads 2), then estimate once more at 1e4
assets and seed 7, where the estimate takes the best lower-confidence-bound
bin and some resamples take the fold-median fallback, and simulate once
more with a Z-stream (pricing.sigma_Z 0.1, a two-entry inference.schedule),
whose assets draw 2 + 2 * n_intervals numbers instead of 2 + n_intervals.
Prints each subcommand's exit code, then one `sha256  run/file` line per
artifact, so the diff of two checkouts' outputs names every artifact that
changed. Not part of the test suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from rnemarket.cli import main as cli_main

CONFIG = """\
market.n_assets = {n_assets}
seed = {seed}
estimation.n_boot = 50
curves.grid_points = 200
threads = 2
"""
Z_STREAM = """\
pricing.sigma_Z = 0.1
inference.schedule = 1.0:0.3:0.4, 3.0:0.5:0.2
"""
RUNS = [
    (cmd, cmd, 20_000, 112, "")
    for cmd in ("simulate", "curves", "cohorts", "estimate", "validate")
]
RUNS.append(("estimate-1e4-seed7", "estimate", 10_000, 7, ""))
RUNS.append(("simulate-z-stream", "simulate", 20_000, 112, Z_STREAM))


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd, n_assets, seed, extra in RUNS:
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text(CONFIG.format(n_assets=n_assets, seed=seed) + extra)
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([cmd, "--config", str(cfg), "--out-dir", str(out)])
            print(f"exit {code}  {name}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
