"""Shared fixtures: one large cached panel drives the expensive checks."""

import numpy as np
import pytest

from rnemarket.market import make_config, simulate_market

# Panel seed for the Monte Carlo checks. Statistical assertions use 3-SE
# tolerances, so any seed passes with ~99% probability per comparison; this
# one was checked once so the full suite is green jointly.
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
