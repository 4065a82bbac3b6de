"""Span and count tracer for one in-process rnemarket CLI run.

Run as a script, it imports ``rnemarket.cli``, wraps the public functions of
the six modules, runs ``rnemarket.cli.main`` on the remaining arguments and
writes the spans, counts and per-function totals to a JSON file:

    python3 perfbench/tracer.py SPAWNED_AT OUT_JSON estimate --config run.cfg --out-dir out

SPAWNED_AT is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so ``import_s`` covers interpreter start and
import. Spans stay in memory until the run ends. Functions called once per
asset or per dense-path step are counted, not spanned, which keeps the
overhead low; their counts are exact under any thread budget.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types

MODULES = ("inference", "pricing", "anomalies", "market", "estimation", "cli")
COUNT_ONLY = frozenset(
    {
        "inference.posterior_from_loglr",
        "pricing.rne_belief",
        "pricing.canonical_price",
        "pricing.price_sde_step",
    }
)


class Tracer:
    """In-memory spans (name, start, end, parent), counts and gauges."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.values = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Wrap fn so that each call is counted and, unless hot, spanned.

        after(tracer, args, result) runs when a spanned call returns normally.
        """
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(name + ".calls")
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                stack.pop()
                span = {"id": sid, "name": name, "start": t0, "end": t1,
                        "cpu": c1 - c0, "parent": parent, "error": error}
                with self._lock:
                    self.spans.append(span)
                    self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
            if after is not None:
                after(self, args, result)
            return result

        return spanned


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def totals(spans: list) -> dict:
    """Function name -> summed duration, self time, CPU time and error count."""
    own = self_times(spans)
    out = {}
    for s in spans:
        t = out.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "errors": {}})
        t["s"] += s["end"] - s["start"]
        t["self_s"] += own[s["id"]]
        t["cpu_s"] += s["cpu"]
        if s["error"] is not None:
            t["errors"][s["error"]] = t["errors"].get(s["error"], 0) + 1
    return out


def _after_simulate(tracer, args, panel):
    tracer.count("market.assets_simulated", panel.n_assets)


def _after_analytic_curve(tracer, args, curve):
    tracer.count("anomalies.curve_points", len(curve.v))


def _after_roundtrip(tracer, args, res):
    d = res.diagnostics
    tracer.values["estimation.K_rel_err"] = abs(res.K_hat - d["K_true"]) / d["K_true"]
    tracer.values["estimation.rho_rel_err"] = abs(res.rho_hat - d["rho_true"]) / d["rho_true"]
    if "K_ci" in d:
        tracer.values["estimation.K_ci_width"] = d["K_ci"][1] - d["K_ci"][0]


AFTER = {
    "market.simulate_market": _after_simulate,
    "anomalies.analytic_curve": _after_analytic_curve,
    "estimation.roundtrip": _after_roundtrip,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of the six modules in every namespace that binds it.

    A function imported by name into another module (simulate_market into
    estimation and cli, posterior_from_loglr into market and pricing) is
    replaced there too, so calls through either name are seen. Returns the
    number of functions wrapped.
    """
    mods = [importlib.import_module(f"rnemarket.{m}") for m in MODULES]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                qual = f"{short}.{name}"
                wrapped[obj] = tracer.wrap(qual, obj, AFTER.get(qual))
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    return len(wrapped)


def main(argv: list) -> int:
    spawned_at, out_json, cli_args = float(argv[0]), argv[1], argv[2:]
    import rnemarket.cli as cli

    import_s = time.monotonic() - spawned_at
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(out_json, "w") as fh:
        json.dump(
            {
                "exit": code,
                "import_s": import_s,
                "totals": totals(tracer.spans),
                "counts": tracer.counts,
                "values": tracer.values,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
