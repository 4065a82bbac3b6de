"""Config parsing, echo round trips, subcommands and exit codes."""

import contextlib
import csv
import filecmp
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnemarket import cli, inference, market
from rnemarket.cli import (
    MAX_GRID_POINTS,
    ConfigError,
    _validate_checks,
    echo_config,
    main,
    parse_config,
)
from rnemarket.market import ASSET_BLOCK, MAX_BINS, make_config

from conftest import no_child_left

DATA = Path(__file__).parent / "data"


def test_defaults_parse_from_an_empty_document():
    rc = parse_config("")
    assert rc.market.n_assets == 10_000
    assert rc.market.truth.rho == 9.0
    assert rc.market.pricing.K == 1.5
    assert rc.seed == 0 and rc.threads == 1
    assert rc.estimation_t is None
    assert rc.curves_rho == (9.0,) and rc.curves_K == (1.5,)


def test_cli_defaults_are_the_library_defaults():
    assert parse_config("").market == make_config()


def test_reference_prior_is_derived_from_the_truth():
    rc = parse_config("market.p1_0 = 0.1\nmarket.rho = 9\n")
    assert rc.derived()["pi1_0"] == pytest.approx(1 / 82, rel=1e-14)
    assert rc.market.truth.pi1_0 == pytest.approx(1 / 82, rel=1e-14)


def test_out_of_range_values_are_config_errors():
    with pytest.raises(ConfigError, match="K"):
        parse_config("pricing.K = 0.5\n")
    with pytest.raises(ConfigError, match="p1_0"):
        parse_config("market.p1_0 = 1.5\n")
    with pytest.raises(ConfigError, match="threads"):
        parse_config("threads = 0\n")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'pricing.kappa'"):
        parse_config("seed = 1\npricing.kappa = 2\n")
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'seed' .*line 1"):
        parse_config("seed = 1\n# comment\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"line 1: invalid value for 'market.n_assets'"):
        parse_config("market.n_assets = many\n")
    with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
        parse_config("seed 3\n")
    # the anomaly window's thresholds are fixed, not config keys
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'window.eps_p'"):
        parse_config("seed = 1\nwindow.eps_p = 0.2\n")


FLOAT_KEYS = (
    "market.p1_0", "market.rho", "market.sign_prob_plus", "market.max_asset_steps",
    "pricing.K", "pricing.S_delta", "pricing.bsure_premium_drift", "pricing.rZ_delta",
    "pricing.sigma_Z", "pricing.y_minus0", "pricing.t_max",
    "inference.sigma_lZ", "inference.sigma_lD", "inference.dt", "inference.t_max",
    "estimation.t", "curves.t",
    "derived.pi1_0", "derived.Pi1_0_plus", "derived.Pi1_0_minus",
    "derived.t_p", "derived.t_K", "derived.t_rho",
)
# list-valued keys, with a valid value whose slots a non-finite token replaces
LIST_KEYS = {
    "market.record_times": ["0.6", "1.2", "2.4", "8.0"],
    "curves.rho_list": ["3", "9"],
    "curves.K_list": ["1.2", "1.5"],
    "inference.schedule": ["1.0", "0.3", "0.4", "3.0", "0.5", "0.2"],
}


@settings(max_examples=80, deadline=None)
@given(
    key=st.sampled_from(FLOAT_KEYS + tuple(LIST_KEYS)),
    token=st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity"]),
    slot=st.integers(0, 5),
    filler=st.lists(st.sampled_from(["", "# note", "seed = 3"]), max_size=3, unique=True),
)
def test_non_finite_values_are_config_errors_on_their_line(
    tmp_path_factory, key, token, slot, filler
):
    if key in LIST_KEYS:
        parts = list(LIST_KEYS[key])
        parts[slot % len(parts)] = token
        if key == "inference.schedule":
            value = ", ".join(":".join(parts[i : i + 3]) for i in (0, 3))
        else:
            value = ", ".join(parts)
    else:
        value = token
    lineno = len(filler) + 1
    text = "\n".join(filler + [f"{key} = {value}", "market.n_assets = 600"]) + "\n"
    expected = f"line {lineno}: non-finite value for {key!r}"
    with pytest.raises(ConfigError, match=expected):
        parse_config(text)
    path = tmp_path_factory.mktemp("nonfinite") / "c.cfg"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["curves", "--config", str(path), "--out-dir", str(path.parent / "o")])
    assert code == 2
    assert expected in err.getvalue()


# out-of-range cases: lines (key, value) and how many of them, from the
# first, the error names; parse_config rejects these for every subcommand
OUT_OF_RANGE = [
    ([("market.n_assets", "0")], 1),
    ([("market.n_assets", "-5")], 1),
    ([("market.p1_0", "1")], 1),
    ([("market.p1_0", "-0.2")], 1),
    ([("market.rho", "0")], 1),
    ([("market.sign_prob_plus", "1.5")], 1),
    ([("market.sign_prob_plus", "-0.1")], 1),
    ([("market.b_measure", "objective")], 1),
    ([("market.record_times", "0.6, 12")], 1),
    ([("market.record_times", "")], 1),
    ([("market.record_times", "0, 1")], 1),
    ([("market.record_times", "1.2, 0.6")], 1),
    ([("market.n_bins", "1")], 1),
    ([("market.n_min", "-5")], 1),
    ([("market.max_asset_steps", "-1")], 1),
    ([("pricing.K", "0.5")], 1),
    ([("pricing.S_delta", "0")], 1),
    ([("pricing.bsure_premium_drift", "-0.1")], 1),
    ([("pricing.rZ_delta", "-0.1")], 1),
    ([("pricing.rZ_delta", "0.2")], 1),
    ([("pricing.sigma_Z", "-0.1")], 1),
    ([("pricing.t_max", "5")], 1),
    ([("inference.sigma_lZ", "-0.1")], 1),
    ([("inference.sigma_lD", "-0.5")], 1),
    ([("inference.sigma_lD", "0")], 1),
    ([("inference.dt", "0")], 1),
    ([("inference.dt", "20")], 1),
    ([("inference.t_max", "5")], 1),
    ([("inference.schedule", "2:0.1:0.5, 1:0.1:0.5")], 1),
    ([("inference.schedule", "1:-0.1:0.5")], 1),
    ([("estimation.n_boot", "-1")], 1),
    ([("curves.rho_list", "")], 1),
    ([("curves.grid_points", "9")], 1),
    ([("seed", "-1")], 1),
    ([("threads", "0")], 1),
    ([("derived.t_rho", "1.0")], 1),
    # cross-key errors name every line involved
    ([("market.record_times", "0.6, 9"), ("inference.t_max", "8.5")], 2),
    ([("market.record_times", "0.6, 9"), ("pricing.t_max", "8.5"),
      ("inference.t_max", "8.9")], 3),
    ([("pricing.rZ_delta", "0.1"), ("pricing.S_delta", "0.5"), ("pricing.t_max", "10")], 3),
    ([("pricing.rZ_delta", "0.05"), ("pricing.sigma_Z", "0.1"),
      ("inference.sigma_lZ", "0.3")], 3),
    ([("inference.dt", "2"), ("inference.t_max", "1")], 2),
    ([("inference.sigma_lD", "0"), ("inference.sigma_lZ", "0")], 2),
    # variances and premiums past 1e300 over the horizon
    ([("inference.sigma_lD", "1e154")], 1),
    ([("inference.sigma_lZ", "1e150"), ("inference.t_max", "10")], 2),
    ([("pricing.sigma_Z", "1e308")], 1),
    ([("pricing.bsure_premium_drift", "1e308")], 1),
    ([("pricing.bsure_premium_drift", "2e299"), ("pricing.t_max", "10")], 2),
]
# the curve lattice's range errors, raised by the subcommands that build it
CURVE_OUT_OF_RANGE = [
    ([("curves.rho_list", "-3, 9")], 1),
    ([("curves.K_list", "0.5")], 1),
    ([("curves.t", "0")], 1),
    ([("curves.K_list", "1.5, 1.2, 1.5")], 1),
    ([("curves.K_list", "1e308")], 1),
    ([("curves.rho_list", "5e-324")], 1),
]


@settings(max_examples=120, deadline=None)
@given(
    case=st.sampled_from(OUT_OF_RANGE + CURVE_OUT_OF_RANGE),
    filler=st.lists(
        st.sampled_from(["", "# note", "estimation.t = auto"]), max_size=3, unique=True
    ),
    data=st.data(),
)
def test_out_of_range_values_are_config_errors_on_their_lines(
    tmp_path_factory, case, filler, data
):
    stated, n_named = case
    lines = data.draw(st.permutations(
        [f"{k} = {v}" for k, v in stated] + filler + ["market.n_assets = 600"] * (
            stated[0][0] != "market.n_assets")
    ))
    # the keys the error names come first in each case
    named = sorted(lines.index(f"{k} = {v}") + 1 for k, v in stated[:n_named])
    prefix = ", ".join(f"line {n}" for n in named) + ": "
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("range") / "c.cfg"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["curves", "--config", str(path), "--out-dir", str(path.parent / "o")])
    assert code == 2
    assert err.getvalue().startswith(f"config error: {prefix}"), (err.getvalue(), prefix)
    if case in OUT_OF_RANGE:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert err.getvalue() == f"config error: {info.value}\n"
    else:
        parse_config(text)


@pytest.mark.parametrize("line", [
    "curves.rho_list = -3, 9", "curves.K_list = 0.5", "curves.t = 0",
])
def test_curve_lattice_errors_leave_simulate_running(tmp_path, line):
    cfg = _write(tmp_path, "c.cfg", f"market.n_assets = 200\n{line}\n")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "panel.csv").exists()


def test_flag_overrides_share_the_config_checks(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "seed = 3\n")
    for flag, value, message in (
        ("--seed", "-1", "--seed: seed must be an integer in [0, 2^64)"),
        ("--threads", "0", "--threads: threads must be at least 1"),
        ("--grid-points", "9", "--grid-points: curves.grid_points must be at least 10"),
    ):
        assert main(["curves", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                     flag, value]) == 2
        assert message in capsys.readouterr().err
    # a flag replaces the document's value rather than duplicating its key
    rc = parse_config("seed = 3\nthreads = 2\n", {"seed": ("--seed", 7)})
    assert (rc.seed, rc.threads) == (7, 2)


def test_comments_and_blank_lines_are_ignored():
    rc = parse_config("\n# a note\nseed = 5  # trailing comment\n\n")
    assert rc.seed == 5


def test_stated_derived_values_are_cross_checked():
    good = f"market.p1_0 = 0.1\nderived.pi1_0 = {1 / 82!r}\n"
    assert parse_config(good).market.truth.p1_0 == 0.1
    bad = "market.p1_0 = 0.1\nderived.pi1_0 = 0.013\n"
    with pytest.raises(ConfigError, match="pi1_0"):
        parse_config(bad)


def test_echo_is_a_parse_fixed_point():
    text = (
        "market.n_assets = 3000\nmarket.p1_0 = 0.3\nmarket.rho = 4\n"
        "pricing.K = 1.2\ninference.schedule = 2.0:0.1:0.4, 5.0:0.0:0.2\n"
        "estimation.t = 1.2\ncurves.rho_list = 1, 4\nseed = 9\nthreads = 2\n"
    )
    rc = parse_config(text)
    echoed = echo_config(rc)
    rc2 = parse_config(echoed)
    assert echo_config(rc2) == echoed
    assert rc2 == rc
    assert "derived.pi1_0" in echoed
    assert "estimation.t = 1.2" in echoed


def test_echo_spells_auto_epoch():
    echoed = echo_config(parse_config(""))
    assert "estimation.t = auto" in echoed


# every key at a value other than its default
ALL_KEYS = """\
market.n_assets = 3000
market.p1_0 = 0.3
market.rho = 4
market.sign_prob_plus = 0.4
market.b_measure = rne
market.record_times = 0.5, 1, 3, 7
market.n_bins = 40
market.n_min = 30
market.max_asset_steps = 1e9
pricing.K = 1.2
pricing.S_delta = 0.8
pricing.bsure_premium_drift = 0.01
pricing.rZ_delta = 0.02
pricing.sigma_Z = 0.1
pricing.y_minus0 = 0.1
pricing.t_max = 9
inference.sigma_lZ = 0.2
inference.sigma_lD = 0.4
inference.dt = 0.02
inference.t_max = 9
inference.schedule = 2.0:0.1:0.4, 5.0:0.0:0.2
estimation.t = 3
estimation.n_boot = 50
curves.rho_list = 3, 9
curves.K_list = 1.2, 1.9
curves.t = 3
curves.grid_points = 500
seed = 9
threads = 2
"""


@pytest.mark.parametrize("text, golden", [
    ("", "echo_default.txt"), (ALL_KEYS, "echo_all_keys.txt"),
], ids=["default", "all_keys"])
def test_echo_matches_the_recorded_golden(text, golden):
    # the goldens were echoed when the config still had window.eps_p and
    # window.M_rho (at their defaults 0.2 and 5.0, or 0.3 and 4 in ALL_KEYS)
    recorded = (DATA / golden).read_text().splitlines(keepends=True)
    expected = "".join(line for line in recorded if not line.startswith("window."))
    assert echo_config(parse_config(text)) == expected


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL = "market.n_assets = 600\nseed = 11\n"


def test_simulate_writes_panel_and_dense_paths(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "config_echo.txt").exists()
    with open(out / "panel.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["asset_id", "t", "pi", "Pi", "S", "B", "sign"]
    assert len(rows) == 1 + 600 * 4
    with open(out / "price_paths.csv", newline="") as fh:
        head = fh.readline().strip()
    assert head.split(",")[:3] == ["path_id", "t", "pi"]
    assert "panel.csv" in capsys.readouterr().out


def test_cohorts_covers_every_recorded_epoch(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "market.n_assets = 2000\nseed = 3\n")
    out = tmp_path / "out"
    assert main(["cohorts", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "cohorts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "kind", "v_bin", "rp", "se", "n", "mix_ratio"]
    assert {float(r[0]) for r in rows[1:]} == {0.6, 1.2, 2.4, 8.0}
    assert {r[1] for r in rows[1:]} == {"momentum_plus", "momentum_minus", "volatility"}


def test_curves_rejects_lattice_values_that_share_a_file_name(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "curves.K_list = 1.5\ncurves.rho_list = 9.0, 9.0000001\n")
    out = tmp_path / "out"
    assert main(["curves", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 2: 9.0 and 9.0000001 both print as 9 in the curve file names")
    assert not list(out.glob("curve_*.csv"))


def test_curves_checks_every_lattice_point_before_writing(tmp_path, capsys):
    # the first point is valid: its file used to be written before the second failed
    cfg = _write(tmp_path, "c.cfg", "curves.K_list = 1.5, 0.5\n")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["curves", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: line 1: K must be >= 1")
    assert {p.name for p in out.glob("*")} == {"config_echo.txt"}


def test_curves_tabulates_the_analytic_family(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "curves.rho_list = 1, 9\ncurves.K_list = 1.5\n")
    out = tmp_path / "out"
    assert main(["curves", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "curve_rho1_K1.5.csv").exists()
    assert (out / "curve_rho9_K1.5.csv").exists()
    with open(out / "peaks.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["rho", "K", "kind", "v_max", "rp_max"]
    by_key = {(float(r[0]), r[2]): r for r in rows[1:]}
    flat = by_key[(1.0, "volatility")]
    assert float(flat[3]) == pytest.approx(0.5, abs=1e-3)
    assert float(flat[4]) == pytest.approx(0.1, abs=1e-6)


LATTICE = "curves.rho_list = 3, 9, 27\ncurves.K_list = 1.2, 1.5, 1.9\ncurves.grid_points = 200\n"


def _command_on(monkeypatch, cpus, command, cfg, out):
    """command as if the process could use cpus CPUs: (exit code, stdout, forks)."""
    forks, fork, stdout = [], os.fork, io.StringIO()
    with monkeypatch.context() as m, contextlib.redirect_stdout(stdout):
        m.setattr(market, "_usable_cpus", lambda: cpus)
        m.setattr(os, "fork", lambda: forks.append(1) or fork())
        code = main([command, "--config", cfg, "--out-dir", str(out)])
    return code, stdout.getvalue().replace(str(out), "OUT"), len(forks)


def _curves_on(monkeypatch, cpus, cfg, out):
    return _command_on(monkeypatch, cpus, "curves", cfg, out)


def _same_files(a: Path, b: Path) -> None:
    names = sorted(p.name for p in a.iterdir())
    assert sorted(p.name for p in b.iterdir()) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), (b, name)


def test_curves_writes_the_same_bytes_in_forked_writers(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "c.cfg", LATTICE)
    runs = {}
    for cpus in (1, 2, 3, 16):
        runs[cpus] = _curves_on(monkeypatch, cpus, cfg, tmp_path / f"cpus{cpus}")
        no_child_left()
    # one CPU computes and writes every point in process; with procs
    # processes the parent takes points 0, procs, ... and each child its own
    # share: 2 CPUs split the 9 points 5/4, 3 CPUs 3/3/3, 16 CPUs one each
    assert [runs[cpus][2] for cpus in (1, 2, 3, 16)] == [0, 1, 2, 8]
    assert runs[1][:2] == runs[2][:2] == runs[3][:2] == runs[16][:2]
    assert runs[1][1].count("wrote") == 10
    assert len(list((tmp_path / "cpus1").iterdir())) == 11
    for cpus in (2, 3, 16):
        _same_files(tmp_path / "cpus1", tmp_path / f"cpus{cpus}")


def test_the_parent_computes_only_its_share_of_the_curves(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "c.cfg", LATTICE)
    report, calls = cli.peak_report, []
    monkeypatch.setattr(cli, "peak_report", lambda *a, **k: calls.append(1) or report(*a, **k))
    # the children's calls are counted in their own memory: on 2 CPUs the
    # parent computes points 0, 2, 4, 6 and 8, three curves each, and no
    # curve is computed twice
    for cpus, expected in ((2, 15), (1, 27)):
        calls.clear()
        assert _curves_on(monkeypatch, cpus, cfg, tmp_path / f"cpus{cpus}")[0] == 0
        assert len(calls) == expected
    no_child_left()


def _failing_on(monkeypatch, name: str) -> None:
    write_csv = cli.write_csv

    def failing(path, *args, **kwargs):
        if Path(path).name == name:
            raise OSError("no space left on device")
        return write_csv(path, *args, **kwargs)

    monkeypatch.setattr(cli, "write_csv", failing)


def test_a_failing_writer_fails_curves_and_leaves_no_child(tmp_path, monkeypatch, capfd):
    cfg = _write(tmp_path, "c.cfg", LATTICE)
    # with 9 usable CPUs point 1 is the first child's
    _failing_on(monkeypatch, "curve_rho3_K1.5.csv")
    with pytest.raises(RuntimeError, match=r"the writer of .*curve_rho3_K1\.5\.csv \(exit 1\)"):
        _curves_on(monkeypatch, 9, cfg, tmp_path / "forked")
    no_child_left()
    assert "no space left on device" in capfd.readouterr().err
    # written in the one process, the error is the writer's own
    with pytest.raises(OSError, match="no space left on device"):
        _curves_on(monkeypatch, 1, cfg, tmp_path / "serial")
    no_child_left()


def test_a_failure_in_the_parents_share_still_reaps_every_child(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "c.cfg", LATTICE)
    assert _curves_on(monkeypatch, 1, cfg, tmp_path / "serial")[0] == 0
    # with 3 usable CPUs point 0 is the parent's, and the children take
    # points 1, 4, 7 and 2, 5, 8
    _failing_on(monkeypatch, "curve_rho3_K1.2.csv")
    with pytest.raises(OSError, match="no space left on device"):
        _curves_on(monkeypatch, 3, cfg, tmp_path / "forked")
    no_child_left()
    # reaped, the children had written every file of their shares
    for name in sorted(p.name for p in (tmp_path / "forked").glob("curve_*.csv")):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    assert len(list((tmp_path / "forked").glob("curve_*.csv"))) == 6


def test_curves_runs_the_shares_no_child_could_be_forked_for(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "c.cfg", LATTICE)
    serial = _curves_on(monkeypatch, 1, cfg, tmp_path / "serial")

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    # every fork fails, as under a process limit: the parent runs each share
    monkeypatch.setattr(os, "fork", no_fork)
    assert _curves_on(monkeypatch, 4, cfg, tmp_path / "forked") == serial[:2] + (3,)
    no_child_left()
    _same_files(tmp_path / "serial", tmp_path / "forked")


@pytest.mark.parametrize("n", [10_001, 20_001])
def test_estimate_writes_the_same_bytes_on_any_cpu_count(tmp_path, monkeypatch, n):
    # 10,001 assets are 3 blocks and 20,001 are 5: estimate simulates them
    # in min(CPUs, blocks) processes, the parent and a child forked per
    # further share
    cfg = _write(tmp_path, "e.cfg", f"market.n_assets = {n}\nestimation.n_boot = 20\n")
    runs = {cpus: _command_on(monkeypatch, cpus, "estimate", cfg, tmp_path / f"cpus{cpus}")
            for cpus in (1, 2, 3, 16)}
    no_child_left()
    blocks = -(-n // ASSET_BLOCK)
    assert [runs[cpus][2] for cpus in runs] == [min(cpus, blocks) - 1 for cpus in runs]
    assert runs[1][0] == 0
    assert runs[1][:2] == runs[2][:2] == runs[3][:2] == runs[16][:2]
    for cpus in (2, 3, 16):
        _same_files(tmp_path / "cpus1", tmp_path / f"cpus{cpus}")


def test_grid_points_flag_controls_resolution(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "")
    coarse, fine = tmp_path / "coarse", tmp_path / "fine"
    assert main(["curves", "--config", cfg, "--out-dir", str(coarse),
                 "--grid-points", "200"]) == 0
    assert main(["curves", "--config", cfg, "--out-dir", str(fine)]) == 0
    n_coarse = sum(1 for _ in open(coarse / "curve_rho9_K1.5.csv"))
    n_fine = sum(1 for _ in open(fine / "curve_rho9_K1.5.csv"))
    assert n_coarse < n_fine


def test_outputs_do_not_depend_on_the_thread_budget(tmp_path):
    # threads steers nothing; 2000 assets are one simulation block, 9000 are three
    for n_assets in (2000, 9000):
        cfg = _write(tmp_path, f"c{n_assets}.cfg", f"market.n_assets = {n_assets}\nseed = 17\n")
        dirs = []
        for threads in (1, 4, 8):
            out = tmp_path / f"n{n_assets}t{threads}"
            assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                         "--threads", str(threads)]) == 0
            assert main(["cohorts", "--config", cfg, "--out-dir", str(out),
                         "--threads", str(threads)]) == 0
            dirs.append(out)
        for other in dirs[1:]:
            for name in ("panel.csv", "price_paths.csv", "cohorts.csv"):
                assert filecmp.cmp(dirs[0] / name, other / name, shallow=False), (n_assets, name)


def test_seed_flag_changes_the_draw_and_repeats_exactly(tmp_path):
    cfg = _write(tmp_path, "c.cfg", SMALL)
    outs = {}
    for tag, seed in (("a", "1"), ("b", "2"), ("a2", "1")):
        out = tmp_path / tag
        assert main(["simulate", "--config", cfg, "--out-dir", str(out),
                     "--seed", seed]) == 0
        outs[tag] = out / "panel.csv"
    assert filecmp.cmp(outs["a"], outs["a2"], shallow=False)
    assert not filecmp.cmp(outs["a"], outs["b"], shallow=False)


def test_seeds_outside_u64_are_config_errors(tmp_path, capsys):
    assert parse_config(f"seed = {2**64 - 1}\n").seed == 2**64 - 1
    with pytest.raises(ConfigError, match="seed"):
        parse_config(f"seed = {2**64}\n")
    cfg = _write(tmp_path, "c.cfg", SMALL)
    for seed in ("18446744073709551616", "-1"):
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o"),
                     "--seed", seed]) == 2
        assert "--seed" in capsys.readouterr().err


def test_validate_passes_on_the_default_model(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "")
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out-dir", str(out)]) == 0
    report = (out / "validate_report.txt").read_text()
    assert "PASS" in report and "FAIL" not in report
    assert "conserved priced-odds ratio" in report
    assert "rerun determinism" in report


@pytest.mark.parametrize("measure", ["rne", "reference"])
def test_validate_passes_under_every_b_measure(tmp_path, measure):
    cfg = _write(tmp_path, "c.cfg", f"market.b_measure = {measure}\n")
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "ex-post decomposition reconciles" in (out / "validate_report.txt").read_text()


def test_validate_checks_hold_only_the_columns_they_read():
    # three Monte Carlo checks simulate 20,000 assets each: their whole
    # panels held at once peak near 10 MB, the columns each check reads
    # while it runs near 2.2 MB
    rc = parse_config("")
    list(_validate_checks(rc))  # the process-wide tables and caches: part of no check
    tracemalloc.start()
    try:
        results = list(_validate_checks(rc))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(passed for _, passed, _ in results)
    assert peak <= 5_000_000, peak


def test_bad_config_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "pricing.K = 0.5\n")
    assert main(["validate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.cfg"),
                 "--out-dir", str(tmp_path / "o")]) == 2


# values whose arithmetic once escaped the range checks: S_delta**2
# overflowed, sigma_l**2/2 underflowed to 0, a prior pi1_0 that rounds to
# 1 (or 0) named no line, and a prior p1_0 near 0 that rho admits gave an
# infinite t_p in an echo that did not parse back; and sizes past their
# bounds, rejected before anything is allocated, where the grid and the bins
# each asked for gigabytes
@pytest.mark.parametrize("text, named", [
    ("pricing.S_delta = 1e308\n", "line 2: S_delta"),
    ("inference.sigma_lD = 1e-300\n", "line 2: sigma_l"),
    ("market.p1_0 = 0.1\nmarket.rho = 1e-300\n", "line 2, line 3: the reference prior pi1_0"),
    ("market.p1_0 = 1e-300\nmarket.rho = 1e300\n", "line 2, line 3: the reference prior pi1_0"),
    ("market.p1_0 = 5e-324\nmarket.rho = 1e-300\n",
     "line 2, line 3: p1_0 is so small that derived.t_p's hurdle"),
    (f"curves.grid_points = {MAX_GRID_POINTS + 1}\n", "line 2: curves.grid_points must be at most"),
    ("curves.grid_points = 1000000000\n", "line 2: curves.grid_points must be at most"),
    (f"market.n_bins = {MAX_BINS + 1}\n", "line 2: n_bins must be at most"),
    ("market.n_bins = 1000000000\n", "line 2: n_bins must be at most"),
], ids=["S_delta", "sigma_lD", "rho", "rho-p1_0", "t_p", "grid_points", "grid_points-1e9",
        "n_bins", "n_bins-1e9"])
@pytest.mark.parametrize("cmd", ["estimate", "cohorts", "curves", "simulate"])
def test_extreme_values_are_config_errors_on_their_lines(tmp_path, capsys, text, named, cmd):
    cfg = _write(tmp_path, "c.cfg", "market.n_assets = 3000\n" + text)
    out = tmp_path / "o"
    assert main([cmd, "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}")
    assert {p.name for p in out.glob("*")} <= {"config_echo.txt"}


def test_sizes_at_their_bounds_parse():
    rc = parse_config(f"curves.grid_points = {MAX_GRID_POINTS}\nmarket.n_bins = {MAX_BINS}\n")
    assert (rc.grid_points, rc.market.n_bins) == (MAX_GRID_POINTS, MAX_BINS)


@pytest.mark.parametrize("dt", ["1e-7", "1e-300", "5e-324"])
def test_dense_paths_past_the_step_budget_exit_four_before_writing(tmp_path, capsys, dt):
    # 10 dense paths of 8e7 (or 8e300) steps each, or at 5e-324 of more
    # steps than a float holds: the budget is 2e8
    cfg = _write(tmp_path, "c.cfg", f"market.n_assets = 3000\ninference.dt = {dt}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 4
    assert "dense price paths" in capsys.readouterr().err
    assert {p.name for p in out.glob("*")} == {"config_echo.txt"}


def test_a_dense_path_no_array_can_hold_exits_four_whatever_the_budget(tmp_path, capsys):
    # 1e301 steps per path; 10 paths are within the raised budget
    cfg = _write(tmp_path, "c.cfg", "market.n_assets = 3000\ninference.dt = 1e-300\n"
                                    "market.max_asset_steps = 1e308\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 4
    assert "exceeds what an array can hold" in capsys.readouterr().err
    assert {p.name for p in out.glob("*")} == {"config_echo.txt"}


@pytest.mark.parametrize("sigma", ["1e-150", "1e-154", "1e-155", "1e-160", "1e-200"])
@pytest.mark.parametrize("cmd", ["curves", "estimate"])
def test_tiny_signal_to_noise_writes_no_nan(tmp_path, capsys, sigma, cmd):
    # below about 1e-152 the analytic log weights of both fold sides
    # overflowed to -inf and curves wrote NaN; estimate has no signal to
    # read at any of these values and reports its failure (exit 3)
    cfg = _write(tmp_path, "c.cfg", f"market.n_assets = 3000\ninference.sigma_lD = {sigma}\n"
                                    "estimation.n_boot = 20\n")
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([cmd, "--config", cfg, "--out-dir", str(out)])
    if code == 2:
        assert capsys.readouterr().err.startswith("config error: line 2: sigma_l")
        assert {p.name for p in out.glob("*")} <= {"config_echo.txt"}
        return
    assert code == (0 if cmd == "curves" else 3)
    for path in out.glob("*.csv"):
        assert "nan" not in path.read_text().lower(), path.name
    if cmd == "curves":
        assert sigma == "1e-150"


def test_unresolvable_estimate_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "market.n_assets = 300\nseed = 1\n"
                                    "estimation.n_boot = 0\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 3
    failed = (out / "estimate_FAILED.txt").read_text()
    assert "fewer than 5" in failed


def test_too_few_volatility_bins_is_a_config_error_before_simulating(tmp_path, capsys):
    # n_bins = 9 sorts the folded beliefs into 4 volatility bins, one short
    # of the peak fit; the tiny step budget would stop any simulation (exit 4)
    cfg = _write(tmp_path, "c.cfg", "estimation.n_boot = 0\nmarket.n_bins = 9\n"
                                    "market.max_asset_steps = 10\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 2: n_bins must be at least 10"
    )
    assert not (out / "estimate_FAILED.txt").exists()
    # the cohort sorts take any n_bins from 2
    cfg = _write(tmp_path, "c.cfg", "market.n_assets = 300\nmarket.n_bins = 2\n")
    assert main(["cohorts", "--config", cfg, "--out-dir", str(out)]) == 0


def test_estimation_t_off_the_record_times_is_a_config_error_before_simulating(
    tmp_path, capsys, monkeypatch
):
    def never(*args, **kwargs):
        raise AssertionError("simulated before checking estimation.t")

    monkeypatch.setattr("rnemarket.estimation.simulate_blocks", never)
    cfg = _write(tmp_path, "c.cfg", "estimation.n_boot = 0\nestimation.t = 2.5\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: line 2: t=2.5 is not a recorded epoch"
    )


def test_estimate_runs_when_no_record_time_has_signal(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "inference.schedule = 0.5:0:0\ncurves.t = 0.3\n"
                                    "estimation.n_boot = 0\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "no_in_window_epoch" in (out / "estimate_report.txt").read_text()


@pytest.mark.parametrize("cmd", ["simulate", "cohorts"])
def test_simulate_and_cohorts_heap_does_not_grow_with_the_panel(tmp_path, cmd):
    # 2 and 10 blocks; holding the panel would add 130 bytes per asset
    market._ziggurat_tables()  # the process-wide tables: part of neither run
    inference._format_tables()
    peaks = []
    for n in (2 * ASSET_BLOCK, 10 * ASSET_BLOCK):
        cfg = _write(tmp_path, f"{n}.cfg", f"market.n_assets = {n}\n")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([cmd, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**16, peaks


def test_simulate_holds_one_dense_path_at_a_time(tmp_path):
    # 1 and 10 dense paths of 10**4 steps each: a path takes about 113 bytes
    # per step while it is built and 48 once built, so holding every path
    # until the file is written put the peak near 4x that of one path
    market._ziggurat_tables()
    inference._format_tables()
    peaks = []
    for n in (1, 10):
        cfg = _write(tmp_path, f"{n}.cfg", f"market.n_assets = {n}\ninference.dt = 1e-4\n"
                                           "inference.t_max = 1\nmarket.record_times = 0.5, 1\n")
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize("grid_points", [19, 21])
def test_curves_grids_stay_in_their_domains(tmp_path, grid_points):
    # at 19 points arange's momentum grid ends at 1.0, at 21 its volatility
    # grid passes 1/2
    out = tmp_path / "out"
    assert main(["curves", "--out-dir", str(out), "--grid-points", str(grid_points)]) == 0
    for path in out.glob("*.csv"):
        assert "nan" not in path.read_text(), path.name


def _estimate_report_and_numpy_ma(tmp_path, text):
    """The report of estimate on config text in a fresh process, and whether it loaded numpy.ma."""
    code = (
        "import sys, rnemarket.cli as cli\n"
        "code = cli.main(['estimate', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    cfg = _write(tmp_path, "c.cfg", text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    exit_code, loaded = out.stdout.splitlines()[-1].split()
    assert exit_code == "0"
    return (tmp_path / "out" / "estimate_report.txt").read_text(), loaded == "True"


def test_estimate_on_a_regular_point_estimate_loads_no_numpy_ma(tmp_path):
    # np.unique, np.percentile and np.median import numpy.ma
    report, loaded = _estimate_report_and_numpy_ma(
        tmp_path, "market.n_assets = 50000\nseed = 112\nestimation.n_boot = 50\n"
    )
    assert not loaded
    assert "flags" not in report


def test_estimate_on_the_fold_median_fallback_loads_no_numpy_ma(tmp_path):
    # K = 1: the point estimate and most resamples read the fold median
    report, loaded = _estimate_report_and_numpy_ma(
        tmp_path, "market.n_assets = 20000\nseed = 112\nestimation.n_boot = 50\npricing.K = 1\n"
    )
    assert not loaded
    assert "flags: no_significant_peak" in report


def test_resource_guard_exits_four(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "market.max_asset_steps = 10\n")
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 4
    assert "resource guard" in capsys.readouterr().err
    assert not (tmp_path / "o" / "panel.csv").exists()


def test_estimate_reports_the_recovery(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg",
                 "market.n_assets = 4000\nseed = 112\nestimation.n_boot = 25\n")
    out = tmp_path / "out"
    assert main(["estimate", "--config", cfg, "--out-dir", str(out)]) == 0
    with open(out / "estimate.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["K_true", "rho_true", "K_hat", "rho_hat"]
    assert len(rows) == 2
    report = (out / "estimate_report.txt").read_text()
    assert "K_hat" in report and "bootstrap 95% CIs" in report
    assert "K_hat" in capsys.readouterr().out


def test_cli_import_and_curves_load_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI, parsing a config,
    # tabulating curves and estimating (flatness gate included) must not
    # load any of it
    code = (
        "import sys, rnemarket.cli as cli\n"
        "cli.parse_config(open(sys.argv[1]).read())\n"
        "def scipy_mods(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "after_import = scipy_mods()\n"
        "codes = [cli.main([cmd, '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
        "         for cmd in ('curves', 'estimate')]\n"
        "print(codes, after_import, scipy_mods())\n"
    )
    cfg = _write(tmp_path, "c.cfg", "curves.grid_points = 200\ncurves.rho_list = 1, 9\n"
                 "market.n_assets = 4000\nseed = 112\nestimation.n_boot = 25\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code, cfg, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[0, 0] [] []"


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_cli_import_defaults_openblas_to_one_thread(preset, want):
    # the default must be in place before numpy loads OpenBLAS, so only a
    # fresh interpreter can show it; a value the user set is kept
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    # a finder ahead of the others records the variable when numpy first
    # starts to load, so an import that brings numpy in before the CLI sets
    # the default shows as None here
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import rnemarket.cli\n"
        "print(seen, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == f"['{want}'] {want}"
