"""One benchmark pass: a fresh interpreter running one CLI campaign.

Usage (from the repository root)::

    python perfbench/child.py [--trace] -- --seed 3 --jobs 1 table3

Everything after ``--`` is handed to ``python -m repro.cli`` unchanged.
The pass imports every module of the ``repro`` package found under
``src/`` (that import is the set-up the pass times), then runs the
command in-process with its output captured, optionally under
:mod:`cProfile`.  The last line of standard output is one JSON object:

``setup_s``        wall seconds to import the whole package;
``setup_probe_s``  mean time of the speed probe's loop over that import
                   (see :class:`SpeedProbe`);
``campaign_s``     wall seconds of the CLI command itself;
``probe_s``        untraced only: the probe's mean over the command;
``peak_rss_kb``  the process's peak resident set after the command;
``exit``         the command's exit status;
``stdout``       what the command printed;
``layers``       with ``--trace``, the per-layer account (see layers.py).

``--import-only`` stops after the set-up and reports its two fields alone.

Exits non-zero without a result when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import importlib
import io
import json
import os
import pkgutil
import pstats
import resource
import runpy
import signal
import sys
import time
import traceback
import warnings

from layers import LayerMap, attribute

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.join(ROOT, "src", "repro")


def import_package() -> None:
    """Import ``repro`` from this checkout and every module under it."""
    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        sys.exit(f"perfbench: no package at {PACKAGE_DIR}")
    sys.path.insert(0, os.path.dirname(PACKAGE_DIR))
    import repro

    if os.path.realpath(os.path.dirname(repro.__file__)) != os.path.realpath(PACKAGE_DIR):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {PACKAGE_DIR}")
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


class SpeedProbe:
    """Samples the machine's speed while timed work runs.

    A shared host runs the same code up to half again slower in some
    seconds than in others.  Every ``interval`` seconds of wall time a
    signal handler times a fixed loop of dict updates that shares no code
    with the package; the mean sample says how fast the machine ran over
    exactly the seconds the work ran, so ``campaign_s / probe_s`` keeps
    the work's cost and drops most of the machine's drift.  The samples
    cost about half a percent of the work's time.
    """

    LOOP = 300

    def __init__(self, interval: float = 0.01) -> None:
        self.interval = interval
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        table: dict[int, int] = {}
        start = time.perf_counter()
        for i in range(self.LOOP):
            table[i & 31] = table.get(i & 31, 0) + i
        self.samples.append(time.perf_counter() - start)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``python -m repro.cli ARGV`` in this process; returns (status, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    sys.argv = ["phantom-delay", *argv]
    status = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with warnings.catch_warnings():
                # runpy warns that repro.cli is already imported: the
                # set-up above imported it on purpose.
                warnings.filterwarnings("ignore", message=".*found in sys.modules",
                                        category=RuntimeWarning)
                runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crashed campaign is a failed pass, reported
            traceback.print_exc(file=err)
            status = 1
    if status:
        sys.stderr.write(err.getvalue()[-4000:])
    return status, out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true",
                        help="profile the command and report per-layer totals")
    parser.add_argument("--import-only", action="store_true",
                        help="stop after the set-up and report only its time")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments for repro.cli, after --")
    args = parser.parse_args()
    argv = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    start = time.perf_counter()
    with SpeedProbe() as setup_probe:
        import_package()
    setup = {"setup_s": time.perf_counter() - start, "setup_probe_s": setup_probe.mean()}
    if args.import_only:
        print(json.dumps(setup))
        return

    start = time.perf_counter()
    if args.trace:
        # No speed probe here: its samples would land in whichever layer
        # the signal interrupted.
        profiler = cProfile.Profile()
        profiler.enable()
        status, stdout = run_cli(argv)
        profiler.disable()
    else:
        with SpeedProbe() as probe:
            status, stdout = run_cli(argv)
    campaign_s = time.perf_counter() - start

    result = {
        **setup,
        "campaign_s": campaign_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exit": status,
        "stdout": stdout,
    }
    if args.trace:
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        result["layers"] = attribute(stats, LayerMap(PACKAGE_DIR))
    else:
        result["probe_s"] = probe.mean()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
