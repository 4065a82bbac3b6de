"""Self-tests of the benchmark's output checks and tracer.

    python3 perfbench/selftest.py

Every checker must accept the artifacts of a real run and reject each of a
set of deliberately corrupted copies, which proves the check can fail. The
tracer's self-time arithmetic is checked on a synthetic nest of spans; two
traced runs of estimate-1e5 (threads = 2) must give identical counts; and a
traced run of each workload must leave every artifact byte-identical to an
untraced run. The traced tests run the full-size workloads and take about
a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import checks
import run
import tracer

WORK = run.WORK / f"selftest-{os.getpid()}"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.ROOT / "src")
    return env


def workload_config(name: str, **overrides) -> dict:
    return {**run.BASE_CONFIG, **run.WORKLOADS[name].overrides, "seed": 5, **overrides}


def write_config(cfg: dict, path: Path) -> Path:
    path.write_text(run.config_text(cfg))
    return path


def run_cli(command: str, cfg_path: Path, out: Path) -> None:
    subprocess.run([sys.executable, "-m", "rnemarket.cli", command, "--config", str(cfg_path),
                    "--out-dir", str(out)], env=cli_env(), check=True,
                   stdout=subprocess.DEVNULL)


def run_traced(command: str, cfg_path: Path, out: Path) -> dict:
    rec = out.with_suffix(".json")
    subprocess.run([sys.executable, str(Path(tracer.__file__)), repr(time.monotonic()),
                    str(rec), command, "--config", str(cfg_path), "--out-dir", str(out)],
                   env=cli_env(), check=True, stdout=subprocess.DEVNULL)
    return json.loads(rec.read_text())


def edit_line(path: Path, lineno: int, edit) -> None:
    """Replace 1-based line lineno of path by edit(line); edit may return None to drop it."""
    lines = path.read_text().splitlines(keepends=True)
    new = edit(lines[lineno - 1])
    lines[lineno - 1:lineno] = [] if new is None else [new]
    path.write_text("".join(lines))


def set_field(index: int, value: str):
    def edit(line):
        f = line.rstrip("\n").split(",")
        f[index] = value
        return ",".join(f) + "\n"
    return edit


def scale_field(index: int, factor: float):
    def edit(line):
        f = line.rstrip("\n").split(",")
        f[index] = "%.17g" % (float(f[index]) * factor)
        return ",".join(f) + "\n"
    return edit


class CheckerTests(unittest.TestCase):
    """Each checker passes a real artifact and fails every corruption of it."""

    @classmethod
    def setUpClass(cls):
        WORK.mkdir(parents=True, exist_ok=True)
        cls.cases = {
            "estimate": ("estimate-1e5", {"market.n_assets": 20_000,
                                          "estimation.n_boot": 20}, checks.check_estimate),
            "curves": ("curves-lattice", {"curves.rho_list": (3.0, 9.0),
                                          "curves.K_list": (1.5, 1.9),
                                          "curves.grid_points": 200}, checks.check_curves),
        }
        cls.pristine = {}
        for key, (name, small, _) in cls.cases.items():
            cfg = workload_config(name, **small)
            out = WORK / f"pristine-{key}"
            run_cli(run.WORKLOADS[name].command, write_config(cfg, WORK / f"{key}.cfg"), out)
            cls.pristine[key] = (cfg, out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def assert_rejects(self, key: str, corrupt) -> None:
        cfg, pristine = self.pristine[key]
        check = self.cases[key][2]
        self.assertEqual(check(pristine, cfg), [])
        bad = WORK / f"bad-{key}"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(pristine, bad)
        corrupt(bad)
        self.assertNotEqual(check(bad, cfg), [])

    def test_estimate_rejects_nonfinite_K_hat(self):
        self.assert_rejects("estimate", lambda d: edit_line(d / "estimate.csv", 2, set_field(2, "nan")))

    def test_estimate_rejects_K_hat_below_one(self):
        self.assert_rejects("estimate", lambda d: edit_line(d / "estimate.csv", 2, set_field(2, "0.5")))

    def test_estimate_rejects_inverted_ci(self):
        def swap(line):
            f = line.rstrip("\n").split(",")
            f[6], f[7] = f[7], f[6]
            return ",".join(f) + "\n"
        self.assert_rejects("estimate", lambda d: edit_line(d / "estimate.csv", 2, swap))

    def test_estimate_rejects_wrong_seed(self):
        self.assert_rejects("estimate", lambda d: edit_line(d / "estimate.csv", 2, set_field(11, "6")))

    def test_estimate_rejects_missing_column(self):
        def drop_last(line):
            return line.rstrip("\n").rsplit(",", 1)[0] + "\n"
        self.assert_rejects("estimate", lambda d: [edit_line(d / "estimate.csv", i, drop_last)
                                                   for i in (1, 2)])

    def test_curves_reject_dropped_row(self):
        self.assert_rejects("curves", lambda d: edit_line(d / "curve_rho9_K1.5.csv", 40, lambda ln: None))

    def test_curves_reject_nonfinite_value(self):
        self.assert_rejects("curves", lambda d: edit_line(d / "curve_rho3_K1.9.csv", 12, set_field(2, "inf")))

    def test_curves_reject_missing_file(self):
        self.assert_rejects("curves", lambda d: (d / "curve_rho3_K1.5.csv").unlink())

    def test_curves_reject_misplaced_volatility_peak(self):
        def corrupt(d):
            lines = (d / "peaks.csv").read_text().splitlines()
            i = next(i for i, ln in enumerate(lines, 1) if ln.startswith("9,1.5,volatility"))
            edit_line(d / "peaks.csv", i, set_field(3, "0.20000000000000001"))
        self.assert_rejects("curves", corrupt)

    def test_curves_reject_momentum_gap(self):
        def corrupt(d):
            lines = (d / "peaks.csv").read_text().splitlines()
            i = next(i for i, ln in enumerate(lines, 1) if ln.startswith("9,1.5,momentum_minus"))
            edit_line(d / "peaks.csv", i, set_field(8, "0.01"))
        self.assert_rejects("curves", corrupt)


class ContractTests(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.LAYER_METRICS)


class SelfTimeTests(unittest.TestCase):
    def test_self_time_of_a_synthetic_nest(self):
        def span(i, name, start, end, parent):
            return {"id": i, "name": name, "start": start, "end": end, "cpu": 0.0,
                    "parent": parent, "error": None}

        spans = [
            span(0, "root", 0.0, 10.0, None),
            span(1, "a", 1.0, 4.0, 0),
            span(2, "b", 3.0, 6.0, 0),      # overlaps a, as a worker thread's span would
            span(3, "leaf", 2.0, 3.0, 1),
            span(4, "a", 9.0, 12.0, 0),     # ends after its parent: clipped
        ]
        own = tracer.self_times(spans)
        self.assertAlmostEqual(own[0], 10.0 - 6.0)  # children cover [1, 6] and [9, 10]
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 3.0)
        self.assertAlmostEqual(own[3], 1.0)
        tot = tracer.totals(spans)
        self.assertAlmostEqual(tot["a"]["s"], 6.0)
        self.assertAlmostEqual(tot["a"]["self_s"], 5.0)
        self.assertAlmostEqual(tot["root"]["self_s"], 4.0)


class TracedRunTests(unittest.TestCase):
    """Full-size traced runs: exact counts, untouched artifacts."""

    def setUp(self):
        WORK.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(WORK, ignore_errors=True)

    def traced_matches_untraced(self, name: str, n_traced: int) -> list:
        w = run.WORKLOADS[name]
        cfg_path = write_config(workload_config(name), WORK / f"{name}.cfg")
        plain = WORK / f"{name}-plain"
        run_cli(w.command, cfg_path, plain)
        expected = run.digests(plain)
        recs = []
        for i in range(n_traced):
            out = WORK / f"{name}-traced{i}"
            recs.append(run_traced(w.command, cfg_path, out))
            self.assertEqual(run.digests(out), expected, f"{name}: tracing changed an artifact")
        return recs

    def test_estimate_counts_repeat_under_two_threads(self):
        first, second = self.traced_matches_untraced("estimate-1e5", 2)
        self.assertEqual(first["counts"], second["counts"])
        self.assertEqual(first["counts"]["inference.posterior_from_loglr.calls"], 100_000)
        self.assertEqual(first["counts"]["estimation.find_peak.calls"], 201)

    def test_curves_artifacts_unchanged_by_tracing(self):
        (rec,) = self.traced_matches_untraced("curves-lattice", 1)
        self.assertEqual(rec["counts"]["anomalies.analytic_curve.calls"], 27)


if __name__ == "__main__":
    unittest.main()
