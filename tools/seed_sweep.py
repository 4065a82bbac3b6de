"""Seed sweep of the (K, rho) recovery: outcomes, spread, CI coverage, resample paths.

    PYTHONPATH=src python tools/seed_sweep.py --n-assets 10000 --seeds 0-199 --n-boot 200

Runs estimation.roundtrip on the default model (the CLI's defaults, with
market.n_assets set) once per seed and prints one Markdown table row:

- the exit-3 rate: seeds whose curve the estimator rejects (ShapeError),
  where the CLI's estimate exits 3;
- the mean and sd of K_hat and rho_hat over the other seeds;
- the share of their 95% bootstrap CIs that cover the true K and rho,
  with its binomial standard error;
- the bootstrap resample path shares, where the diagnostics carry
  boot_paths.

A digest of every seed's outcome and point estimate follows the table, so
two sweeps over the same seeds show at a glance whether any point estimate
moved. The sweep is not part of the test suite: at 1e5 assets and 200
resamples one seed takes about 0.1 s on two CPUs (roundtrip simulates the
panel's blocks in one process per usable CPU) and 0.13 s on one.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys

import numpy as np

from rnemarket.estimation import BOOT_PATHS, ShapeError, roundtrip
from rnemarket.market import make_config


def _seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def sweep(n_assets: int, seeds, n_boot: int) -> list[dict]:
    """One record per seed: outcome, point estimates, CIs and path counts."""
    config = make_config(n_assets=n_assets)
    rows = []
    for seed in seeds:
        rec = {"seed": seed, "outcome": "ok"}
        try:
            res = roundtrip(config, seed, n_boot=n_boot)
        except ShapeError as err:
            rec["outcome"] = err.reason
            rows.append(rec)
            continue
        d = res.diagnostics
        rec.update(K_hat=res.K_hat, rho_hat=res.rho_hat, v_max=res.v_max_hat,
                   rp_max=res.rp_max_hat, flags=";".join(d["flags"]))
        if n_boot > 0:
            rec.update(K_ci=d["K_ci"], rho_ci=d["rho_ci"])
        rec.update(d.get("boot_paths", {}))
        rows.append(rec)
    return rows


def _cover(rows, key, truth):
    """(share of CIs covering truth, its binomial SE)."""
    hits = [r[key][0] <= truth <= r[key][1] for r in rows]
    c = float(np.mean(hits))
    return c, math.sqrt(c * (1 - c) / len(hits))


def summary(rows: list[dict], n_assets: int, seeds, n_boot: int) -> str:
    ok = [r for r in rows if r["outcome"] == "ok"]
    K = np.array([r["K_hat"] for r in ok])
    rho = np.array([r["rho_hat"] for r in ok])
    cells = [
        f"{n_assets:.0e}".replace("e+0", "e"),
        f"{seeds[0]}-{seeds[-1]}",
        str(n_boot),
        f"{len(rows) - len(ok)}/{len(rows)}",
        f"{K.mean():.4f} ({K.std(ddof=1):.4f})" if len(ok) > 1 else "-",
        f"{rho.mean():.3f} ({rho.std(ddof=1):.3f})" if len(ok) > 1 else "-",
    ]
    if n_boot > 0 and ok:
        truth = make_config(n_assets=n_assets)
        for key, true in (("K_ci", truth.pricing.K), ("rho_ci", truth.truth.rho)):
            c, se = _cover(ok, key, true)
            cells.append(f"{c:.3f} ± {se:.3f}")
    else:
        cells += ["-", "-"]
    if ok and "regular" in ok[0]:
        total = sum(r[p] for r in ok for p in BOOT_PATHS)
        cells.append(
            ", ".join(f"{p} {sum(r[p] for r in ok) / total:.1%}" for p in BOOT_PATHS)
        )
    else:
        cells.append("not recorded")
    head = ["n", "seeds", "n_boot", "exit 3", "K_hat mean (sd)", "rho_hat mean (sd)",
            "cover K", "cover rho", "resample paths"]
    digest = hashlib.sha256(
        repr([(r["seed"], r["outcome"], r.get("K_hat"), r.get("rho_hat"),
               r.get("v_max"), r.get("rp_max"), r.get("flags")) for r in rows]).encode()
    ).hexdigest()
    return "\n".join([
        "| " + " | ".join(head) + " |",
        "|" + " --- |" * len(head),
        "| " + " | ".join(cells) + " |",
        f"point estimates sha256 {digest}",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-assets", type=int, default=10_000)
    ap.add_argument("--seeds", default="0-199", help="inclusive range LO-HI")
    ap.add_argument("--n-boot", type=int, default=200)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    rows = sweep(args.n_assets, seeds, args.n_boot)
    print(summary(rows, args.n_assets, seeds, args.n_boot))
    return 0


if __name__ == "__main__":
    sys.exit(main())
