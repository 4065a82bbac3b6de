"""Every config key through a fixed table of hostile values: the exit-code contract.

Each _SCHEMA key is set to each value of HOSTILE in turn. parse_config
either accepts the value or raises a ConfigError on the value's line. An
accepted value then runs through every subcommand that reads its key, at
3,000 assets, with no resamples and the coarsest grid. The exit code is
0, 2, 3 or 4, never a traceback. An exit of 2 is a config error on the
value's line, and an exit of 2 or 4 leaves no artifact but
config_echo.txt. An exit of 0 writes no nan or inf outside the files
whose nan marks an empty cohort or a missing interval (cohorts.csv and
estimate.csv). The suite turns a RuntimeWarning into an error, so a value
whose arithmetic overflows fails here too. Each accepted value of a key
that reaches every point of a curves lattice (LATTICE_INPUTS) also runs
curves on the lattice curves.rho_list = 3, 9 twice, split between two
processes and in one: both give the same exit code, stderr and files.

Every pair of keys (threads aside: it steers nothing) goes through a
smaller table of values at parse time only: each parse accepts or raises a
ConfigError on one of the two lines, and every accepted config's echo
parses back to the same echo.
"""

import contextlib
import io
import itertools
import re
import shutil

import pytest

from rnemarket import cli, market
from rnemarket.cli import _SCHEMA, ConfigError, echo_config, main, parse_config

HOSTILE = ("nan", "inf", "-inf", "", "text", "-1", "0", "1e-300", "5e-324", "1e154", "1e200",
           "1e308", "1e400", "1, 2")
BASE = {"market.n_assets": "3000", "estimation.n_boot": "0", "curves.grid_points": "10"}
# the keys that move only the prices S, which simulate alone writes
PRICE_ONLY = ("pricing.y_minus0", "pricing.bsure_premium_drift", "pricing.rZ_delta")
# the keys the analytic curves read besides the curves.* keys
CURVE_INPUTS = ("market.p1_0", "pricing.S_delta", "inference.sigma_lZ", "inference.sigma_lD",
                "inference.schedule")
# the keys whose values reach every point of a curves lattice
LATTICE_INPUTS = CURVE_INPUTS + ("curves.t",)
# the artifacts whose nan marks an empty cohort or an estimate without resamples
NAN_ALLOWED = ("cohorts.csv", "estimate.csv")
# a non-finite float as .17g writes it; config_echo.txt's comment says "informational"
NON_FINITE = re.compile(rb"\b(nan|inf)\b")
# the (canonical config, subcommand) pairs run so far: a config that another
# key's value already gave (0 is the default of several) repeats its outcome
RUN = set()


def readers(key: str) -> tuple:
    """The subcommands whose run reads key (validate aside: it fixes its own sizes)."""
    if key.startswith("curves."):
        return ("curves",)
    if key.startswith("estimation."):
        return ("estimate",)
    if key == "inference.dt" or key in PRICE_ONLY:
        return ("simulate",)
    if key in ("market.n_bins", "market.n_min"):
        return ("cohorts", "estimate")
    if key == "threads":
        return ()
    return ("simulate", "cohorts", "estimate") + (("curves",) if key in CURVE_INPUTS else ())


def check_run(cmd: str, cfg, out, label: str, lines: str = "1") -> tuple:
    """Run cmd on the config file cfg into out and check the exit-code contract.

    lines is a pattern of the line numbers a config error may name first.
    Returns the exit code and the text written to stderr; a failed check
    raises an AssertionError that starts with label.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([cmd, "--config", str(cfg), "--out-dir", str(out)])
    except Exception as e:  # a traceback at the command line
        raise AssertionError(f"{label}: {cmd} raised {e!r}") from e
    written = {p.name for p in out.glob("*")}
    assert code in (0, 2, 3, 4), (label, cmd, code)
    if code == 2:
        message = err.getvalue()
        assert re.match(rf"config error: line {lines}\b", message), (label, cmd, message)
    if code in (2, 4):
        assert written <= {"config_echo.txt"}, (label, cmd, written)
    if code == 0:
        for name in sorted(written - set(NAN_ALLOWED)):
            body = (out / name).read_bytes()
            # a CSV holds no words: a plain search is 100 times faster
            bad = (NON_FINITE.search(body) if name.endswith(".txt")
                   else b"nan" in body or b"inf" in body)
            assert not bad, (label, cmd, name)
    return code, err.getvalue()


def _same_on_one_and_two_cpus(tmp_path, monkeypatch, text: str, label: str) -> None:
    """curves on a two-point lattice, forked and in one process: the same
    exit code, stderr and files."""
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(text + "curves.rho_list = 3, 9\n")
    runs = []
    for cpus in (2, 1):
        out = tmp_path / f"lattice-{cpus}"
        with monkeypatch.context() as m:
            m.setattr(market, "_usable_cpus", lambda: cpus)
            code, err = check_run("curves", cfg, out, label)
        runs.append((code, err, {p.name: p.read_bytes() for p in out.glob("*")}))
        shutil.rmtree(out)
    assert runs[0] == runs[1], label


@pytest.mark.parametrize("key", sorted(_SCHEMA))
def test_every_value_parses_or_is_an_error_on_its_line(tmp_path, monkeypatch, key):
    for i, value in enumerate(HOSTILE):
        stated = {key: value, **{k: v for k, v in BASE.items() if k != key}}
        text = "".join(f"{k} = {v}\n" for k, v in stated.items())
        try:
            echo = echo_config(parse_config(text))
        except ConfigError as e:
            assert re.match(r"line 1\b", str(e)), (value, str(e))
            continue
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(text)
        for cmd in readers(key):
            if (echo, cmd) not in RUN:
                RUN.add((echo, cmd))
                check_run(cmd, cfg, tmp_path / f"{i}-{cmd}", f"{key} = {value}")
        # BASE's lattice is one point, which no child computes
        if key in LATTICE_INPUTS and (echo, "lattice") not in RUN:
            RUN.add((echo, "lattice"))
            _same_on_one_and_two_cpus(tmp_path, monkeypatch, text, f"{key} = {value}")


PAIR_VALUES = ("-1", "0", "1e-300", "5e-324", "1e154", "1e200", "1e308", "0.5", "2", "1e-8")


def test_every_pair_of_keys_parses_or_is_an_error_on_its_lines():
    keys = sorted(k for k in _SCHEMA if k != "threads")
    echoes = set()
    for a, b in itertools.combinations(keys, 2):
        for va, vb in itertools.product(PAIR_VALUES, repeat=2):
            text = f"{a} = {va}\n{b} = {vb}\n"
            try:
                echo = echo_config(parse_config(text))
            except ConfigError as e:
                assert re.match(r"line [12]\b", str(e)), (text, str(e))
                continue
            if echo not in echoes:
                echoes.add(echo)
                assert echo_config(parse_config(echo)) == echo, text
