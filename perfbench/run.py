"""Benchmark of the rnemarket CLI: end-to-end runs and a traced per-module run.

    python3 perfbench/run.py --workload estimate-1e5 --seed 0 --seconds 45 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's ``src`` directory. One single-threaded benchmark process
runs the workload's ``rnemarket <subcommand>`` as a subprocess in a closed
loop with one client: the next command starts only after the previous one
has exited and its artifacts have been checked. This process never
imports the program.

``--trace 0`` times each command from spawn to exit and takes its CPU time
and peak RSS from ``os.wait4``; set-up time is a fresh interpreter that
imports ``rnemarket.cli`` and parses the workload config. These times are
reported scaled to a reference host speed (see ``REF_S``); the raw ones are
printed beside them. ``--trace 1``
alternates an untraced command with a traced one (see ``tracer.py``) and
reports the per-module metrics, the tracing overhead, and fails if tracing
changed a single artifact byte.

The seed goes into the generated config file, which is all the program
receives. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give every
metric by name and unit, the artifact digests and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 165.0  # every run must exit within 180 s
SETUP_REPS = 5
# On a shared 2-vCPU VM the speed drifts by up to 1.8x over minutes, more than the
# bounds. Every timed process is therefore bracketed by a fixed pure-Python
# loop, run at once in REF_PROCS processes so that it samples both vCPUs,
# and its times are scaled by REF_S over the loop's mean time around it:
# the time the process would take on a host that runs the loop in REF_S.
REF_CODE = ("import time\nt = time.perf_counter()\nacc = 0\n"
            "for i in range(3_000_000):\n    acc += i * i\nprint(time.perf_counter() - t)")
REF_PROCS = 2
REF_S = 0.5  # the loop's median time on a 2-vCPU Xeon VM with Python 3.11

# Defaults of the keys the output checks depend on, stated so the checks
# never rely on the program's own defaults.
BASE_CONFIG = {
    "market.rho": 9.0,
    "market.record_times": (0.6, 1.2, 2.4, 8.0),
    "pricing.K": 1.5,
    "pricing.S_delta": 1.0,
}


@dataclass(frozen=True)
class Workload:
    command: str
    overrides: dict
    check: Callable
    digest_files: tuple  # artifacts whose sha256 is reported
    throughput: tuple  # work_per_s under its own name and unit

    def items(self, cfg: dict) -> int:
        """Work units one command completes: assets, or curve-CSV rows."""
        if self.command == "curves":
            n_files = len(cfg["curves.rho_list"]) * len(cfg["curves.K_list"])
            return n_files * checks.curve_rows_expected(cfg)
        return cfg["market.n_assets"]


WORKLOADS = {
    "estimate-1e5": Workload(
        "estimate",
        {"market.n_assets": 100_000, "estimation.n_boot": 200, "threads": 2},
        checks.check_estimate,
        ("estimate.csv",),
        ("assets_per_s", "assets/s"),
    ),
    "curves-lattice": Workload(
        "curves",
        {
            "curves.rho_list": (3.0, 9.0, 27.0),
            "curves.K_list": (1.2, 1.5, 1.9),
            "curves.grid_points": 20_000,
        },
        checks.check_curves,
        ("peaks.csv",),
        ("curve_rows_per_s", "rows/s"),
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

# Per-layer metrics, by name and unit. Times are summed over all calls of
# the function; a layer a workload never enters reads 0.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.run_subcommand.self_s": "s",
    "cli.rows_written": "count",
    "anomalies.analytic_curve.s": "s",
    "anomalies.analytic_curve.calls": "count",
    "anomalies.curve_points": "count",
    "anomalies.peak_report.s": "s",
    "anomalies.peak_report.calls": "count",
    "market.simulate_market.self_s": "s",
    "market.simulate_market.cpu_s": "s",
    "market.simulate_market.calls": "count",
    "market.assets_simulated": "count",
    "market.sort_cohorts.s": "s",
    "market.sort_cohorts.calls": "count",
    "market.measure_expost_excess.s": "s",
    "market.measure_expost_excess.calls": "count",
    "inference.posterior_from_loglr.calls": "count",
    "pricing.rne_belief.calls": "count",
    "pricing.canonical_price.calls": "count",
    "estimation.roundtrip.self_s": "s",
    "estimation.find_peak.s": "s",
    "estimation.find_peak.calls": "count",
    "estimation.find_peak.shape_error_frac": "ratio",
    "estimation.recover_params.calls": "count",
    "estimation.K_rel_err": "ratio",
    "estimation.rho_rel_err": "ratio",
    "estimation.K_ci_width": "ratio",
    "process.peak_rss_mb": "MB",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int  # exit code, or minus the signal number
    timed_out: bool

    @property
    def finished(self) -> bool:
        """The command ran to its own end, successfully or not."""
        return not self.timed_out and self.code >= 0


def config_text(cfg: dict) -> str:
    def fmt(v):
        if isinstance(v, tuple):
            return ", ".join(repr(float(x)) for x in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(f"{k} = {fmt(v)}\n" for k, v in cfg.items())


def spawn(argv: list, env: dict, log: Path, timeout: float) -> Sample:
    """Run argv to completion; wall time from spawn to exit, rusage from wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=fh, stdin=subprocess.DEVNULL)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                timed_out = not select.select([fd], [], [], max(timeout, 0.0))[0]
            finally:
                os.close(fd)
            if timed_out:
                proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode, timed_out)


def digests(out: Path) -> dict:
    return {p.name: checks.sha256(p) for p in sorted(out.iterdir()) if p.is_file()}


def csv_rows(out: Path) -> int:
    rows = 0
    for p in out.glob("*.csv"):
        with open(p, "rb") as fh:
            rows += sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1
    return rows


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                        capture_output=True, text=True, check=True).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": rev,
        "git_dirty": dirty,
        "loadavg_1m": os.getloadavg()[0],
    }


class Runner:
    """Spawns and checks the commands of one benchmark run, counting failures."""

    def __init__(self, workload: Workload, cfg: dict, work: Path, env: dict, deadline: float):
        self.workload = workload
        self.cfg = cfg
        self.work = work
        self.env = env
        self.deadline = deadline
        self.cfg_path = work / "run.cfg"
        self.cfg_path.write_text(config_text(cfg))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = None
        self._n = 0

    def _spawn(self, argv: list) -> Sample:
        self.attempted += 1
        log = self.work / f"command{self.attempted}.log"
        s = spawn(argv, self.env, log, self.deadline - time.monotonic())
        if s.code != 0:
            status = "timed out" if s.timed_out else f"exited with {s.code}"
            tail = log.read_text(errors="replace")[-400:].strip()
            self.fail(f"{argv[1:3]} {status}: {tail}")
        return s

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def out_dir(self) -> Path:
        self._n += 1
        return self.work / f"out{self._n}"

    def import_sample(self) -> Sample:
        code = ("import sys, rnemarket.cli as c; "
                "c.parse_config(open(sys.argv[1]).read())")
        return self._spawn([sys.executable, "-c", code, str(self.cfg_path)])

    def cli_sample(self, keep: bool = False):
        """One untraced command; returns (sample, out_dir if keep else None)."""
        out = self.out_dir()
        s = self._spawn([sys.executable, "-m", "rnemarket.cli", self.workload.command,
                         "--config", str(self.cfg_path), "--out-dir", str(out)])
        if s.code == 0:
            # The first command's artifacts get the full check; every later one
            # must reproduce them byte for byte, which is as strict and leaves
            # more of the run for measuring.
            d = digests(out)
            if self.digests is None:
                probs = self.workload.check(out, self.cfg)
                self.digests = d
            else:
                probs = [] if d == self.digests else ["artifacts differ from the first command's"]
            if probs:
                self.fail("; ".join(probs))
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
            out = None
        return s, out

    def traced_sample(self, untraced_out: Path):
        """One traced in-process command; returns (sample, record or None)."""
        out = self.out_dir()
        rec_path = self.work / f"trace{self._n}.json"
        s = self._spawn([sys.executable, str(Path(__file__).with_name("tracer.py")),
                         repr(time.monotonic()), str(rec_path), self.workload.command,
                         "--config", str(self.cfg_path), "--out-dir", str(out)])
        rec = None
        if rec_path.is_file():  # written whenever rnemarket.cli.main returned
            with open(rec_path) as fh:
                rec = json.load(fh)
            rec["rows_written"] = csv_rows(out)
            if untraced_out is not None and digests(out) != digests(untraced_out):
                self.fail("traced run changed the artifacts")
        shutil.rmtree(out, ignore_errors=True)
        return s, rec

    def time_left(self) -> bool:
        return time.monotonic() < self.deadline


def med(xs) -> float:
    return statistics.median(xs) if xs else float("nan")


def reference_s() -> float:
    """Mean time of the reference loop in REF_PROCS processes: the host's current speed."""
    procs = []
    try:
        for _ in range(REF_PROCS):
            procs.append(subprocess.Popen([sys.executable, "-c", REF_CODE], stdout=subprocess.PIPE,
                                          stdin=subprocess.DEVNULL, text=True))
        return statistics.fmean(float(p.communicate(timeout=20)[0]) for p in procs)
    finally:
        for p in procs:
            p.kill()
            p.wait()


def end_to_end(r: Runner, seconds: float) -> dict:
    refs = [reference_s()]

    def bracketed(take):
        """Runs take() before a reference loop; returns its sample and time scale."""
        s = take()
        refs.append(reference_s())
        return s, 2 * REF_S / (refs[-2] + refs[-1])

    setup = [bracketed(r.import_sample) for _ in range(SETUP_REPS)]
    setup = [(s, k) for s, k in setup if s.code == 0]
    samples = []
    t0, last = time.monotonic(), 0.0
    # a command starts only if one as long as the last ends inside the window
    while time.monotonic() - t0 + last < seconds and r.time_left():
        s, k = bracketed(lambda: r.cli_sample()[0])
        last = s.wall_s
        if s.finished:  # a failed command is timed too, and counted in `failed`
            samples.append((s, k))
    wall = med([s.wall_s * k for s, k in samples])
    items = r.workload.items(r.cfg)
    print(f"reference loop: median {med(refs):.4f} s, range {min(refs):.4f}-{max(refs):.4f} s "
          f"over {len(refs)} loops; REF_S = {REF_S} s")
    for name, xs in (("setup_s", setup), ("wall_s", samples)):
        print(f"{name} samples: {len(xs)}, raw median {med([s.wall_s for s, _ in xs]):.6g} s "
              f"({', '.join(f'{s.wall_s:.4f}x{k:.3f}' for s, k in xs)})")
    print(f"cpu_s raw median {med([s.cpu_s for s, _ in samples]):.6g} s")
    name, unit = r.workload.throughput
    print(f"{name} = {items / wall:.6g} {unit} at reference speed ({items} per command)")
    return {
        "setup_s": med([s.wall_s * k for s, k in setup]),
        "wall_s": wall,
        "cpu_s": med([s.cpu_s * k for s, k in samples]),
        "peak_rss_mb": med([s.rss_mb for s, _ in samples]),
        "work_per_s": items / wall,
    }


def per_layer(r: Runner, seconds: float) -> dict:
    """Alternate untraced and traced commands; returns the LAYER_METRICS values."""
    plain, traced, recs = [], [], []
    t0, last = time.monotonic(), 0.0
    # at least two traced commands, so that every run checks that counts repeat
    while (len(recs) < 2 or time.monotonic() - t0 + last < seconds) and r.time_left():
        s, out = r.cli_sample(keep=True)
        if s.finished:
            plain.append(s)
        t, rec = r.traced_sample(out)
        last = s.wall_s + t.wall_s
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if rec is not None:
            traced.append(t)
            recs.append(rec)
    if not recs or not plain:
        return {}
    if any(rec["counts"] != recs[0]["counts"] for rec in recs):
        r.fail("traced counts differ between two runs of the same config")
    counts, values = recs[0]["counts"], recs[0]["values"]
    m = {}
    for name in LAYER_METRICS:
        fn, _, field = name.rpartition(".")
        if field in ("s", "self_s", "cpu_s"):
            m[name] = med([rec["totals"].get(fn, {}).get(field, 0.0) for rec in recs])
        else:
            m[name] = counts.get(name, values.get(name, 0))
    m["cli.import_s"] = med([rec["import_s"] for rec in recs])
    m["cli.rows_written"] = recs[0]["rows_written"]
    errors = recs[0]["totals"].get("estimation.find_peak", {}).get("errors", {})
    calls = m["estimation.find_peak.calls"]
    m["estimation.find_peak.shape_error_frac"] = errors.get("ShapeError", 0) / calls if calls else 0.0
    m["process.peak_rss_mb"] = med([t.rss_mb for t in traced])
    m["trace.overhead_frac"] = med([t.wall_s for t in traced]) / med([s.wall_s for s in plain]) - 1
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "rnemarket" / "cli.py").is_file():
        print(f"no rnemarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a benchmark stopped by SIGTERM still stops its command and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    start = time.monotonic()
    env_record = environment()
    workload = WORKLOADS[args.workload]
    cfg = {**BASE_CONFIG, **workload.overrides, "seed": args.seed}
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    r = Runner(workload, cfg, work, env, start + RUN_LIMIT_S)
    try:
        r.import_sample()  # compiles bytecode and warms the file cache; not timed
        if args.trace:
            metrics, units = per_layer(r, args.seconds), LAYER_METRICS
        else:
            metrics, units = end_to_end(r, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not metrics or any(v != v for v in metrics.values()):
        print(f"no completed measurement: {r.problems}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"fail_frac = {r.failed / r.attempted:.6g} ratio ({r.failed} of {r.attempted} commands)")
    for msg in r.problems:
        print(f"FAILED: {msg}")
    for name in workload.digest_files:
        print(f"sha256 {name} = {(r.digests or {}).get(name)}")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
