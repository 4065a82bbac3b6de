"""One path kernel: a single asset's price path reproduces its panel row bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

from rnemarket.inference import InferenceParams
from rnemarket.market import make_config
from rnemarket.pricing import simulate_price_path

from conftest import whole_panel

CONFIGS = {
    "default": {},
    "z_stream": dict(
        sigma_Z=0.1, rZ_delta=0.05, bsure_premium_drift=0.01,
        inference=InferenceParams(sigma_lZ=0.5, schedule=((1.0, 0.3, 0.4), (3.0, 0.5, 0.2))),
    ),
    "rne": dict(b_measure="rne", K=2.0, sign_prob_plus=0.3),
}
N_ASSETS = 50


def _substream(seed, a):
    """Asset a's Philox substream with its sign and outcome uniforms drawn."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, a], dtype=np.uint64)))
    rng.random(2)
    return rng


@pytest.mark.parametrize("seed", (0, 112, 2**63 + 1))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_paths_reproduce_the_panel_rows(name, seed):
    cfg = make_config(n_assets=N_ASSETS, **CONFIGS[name])
    panel = whole_panel(cfg, seed)
    for a in range(N_ASSETS):
        b = int(panel.B[a])
        params = replace(cfg.pricing, sign_change=int(panel.sign[a]))
        priced = simulate_price_path(
            cfg.inference, params, b, _substream(seed, a), record_times=cfg.record_times
        )
        assert np.array_equal(priced.t, panel.times), a
        for field in ("loglr", "pi", "Pi", "S"):
            assert np.array_equal(getattr(priced, field), getattr(panel, field)[a]), (a, field)
