"""Every pair of config keys at extreme values, run through the subcommands that read them.

    PYTHONPATH=src python -W error::RuntimeWarning tools/pair_probe.py

Sets each pair of the config keys other than threads (which steers
nothing) to each pair of the values 1e-300, 1e154 and 1e308, on lines 1
and 2 of a config that otherwise states the hostile-value sweep's BASE
(3,000 assets, no resamples, the coarsest grid). A parse either accepts
or raises a config error on line 1 or 2. An accepted config then runs
through every subcommand that reads either key, once per distinct
canonical echo, under the sweep's checks (tests/test_hostile_values.py,
check_run): the exit code is 0, 2, 3 or 4, never a traceback; an exit of
2 is a config error on line 1 or 2; an exit of 2 or 4 leaves no artifact
but config_echo.txt; an exit of 0 writes no nan or inf outside
cohorts.csv and estimate.csv. A RuntimeWarning is an error here too.
Prints one line per break and a summary; exits 1 if anything broke.
Takes about a minute; not part of the test suite.
"""

from __future__ import annotations

import itertools
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from rnemarket.cli import _SCHEMA, ConfigError, echo_config, parse_config  # noqa: E402
from test_hostile_values import BASE, check_run, readers  # noqa: E402

VALUES = ("1e-300", "1e154", "1e308")


def main() -> int:
    warnings.simplefilter("error", RuntimeWarning)
    keys = sorted(k for k in _SCHEMA if k != "threads")
    seen, breaks, configs, runs = set(), [], 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for a, b in itertools.combinations(keys, 2):
            for va, vb in itertools.product(VALUES, repeat=2):
                label = f"{a} = {va}, {b} = {vb}"
                stated = {a: va, b: vb, **{k: v for k, v in BASE.items() if k not in (a, b)}}
                text = "".join(f"{k} = {v}\n" for k, v in stated.items())
                try:
                    echo = echo_config(parse_config(text))
                except ConfigError as e:
                    if not re.match(r"line [12]\b", str(e)):
                        breaks.append(f"{label}: parse error {e}")
                    continue
                configs += 1
                cfg = Path(tmp) / f"{configs}.cfg"
                cfg.write_text(text)
                for cmd in sorted(set(readers(a) + readers(b))):
                    if (echo, cmd) in seen:
                        continue
                    seen.add((echo, cmd))
                    runs += 1
                    out = Path(tmp) / f"{runs}-{cmd}"
                    try:
                        check_run(cmd, cfg, out, label, "[12]")
                    except AssertionError as e:
                        breaks.append(str(e))
                    shutil.rmtree(out, ignore_errors=True)
    for line in breaks:
        print(f"BREAK {line}")
    print(f"{len(keys) * (len(keys) - 1) // 2} pairs x {len(VALUES) ** 2} values: "
          f"{configs} accepted, {runs} runs, {len(breaks)} breaks")
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main())
