"""The repository benchmark: four campaign workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 25 --trace 0

Each workload is one ``phantom-delay`` CLI campaign, run the way a user
runs it (``--jobs 1 --no-cache --no-manifest``).  The benchmark runs the
campaign again and again, each pass in a fresh interpreter
(``perfbench/child.py``) with the next input drawn from ``--seed``, until
``--seconds`` have passed, and checks every pass's output:

* the command exits 0 (each experiment's own pass/fail rule);
* the printed result has the expected shape and every unit in it passes:
  Table I rows match the catalogue's ground truth, Table III cases
  reproduce the paper's consequence and stay stealthy, every fleet home
  completes and the fleet digest is the digest of the home digests, every
  search program is searched and the hits carry a witness;
* the first pass's input, run once more at the end, prints byte-identical
  output, since the simulation is deterministic.

The last line of standard output is one JSON object.  With ``--trace 0``
its metrics are the end-to-end ones, each the median over the passes:

``campaign_s``   the CLI command's wall time, imports excluded;
``setup_s``      the time a fresh interpreter takes to import the package;
``peak_rss_mb``  peak resident memory of the campaign process.

Both times are in reference seconds: each pass's wall time is divided by
the speed probe's loop time measured during that same work (see
``child.SpeedProbe``) and multiplied by :data:`PROBE_REFERENCE_S`, which
takes out most of a shared machine's drift in speed.  The raw wall
seconds are printed above the JSON line.  With ``--trace 1``
every pass repeats the first input under cProfile and the metrics are the
per-layer account of one campaign (``perfbench/layers.py``).  Exits
non-zero without a result when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS, render  # noqa: E402

#: A run must end within this many seconds, set-up and checks included.
RUN_LIMIT_S = 170.0

#: Set-up samples per run at least; import-only passes top up a workload
#: whose campaigns are too long to give this many in ``--seconds``.
MIN_SETUPS = 15

#: The speed probe's loop time that defines a reference second: about its
#: median on the 2-vCPU Xeon VM the bounds were measured on.  A fixed unit,
#: the same on every commit.
PROBE_REFERENCE_S = 40e-6

#: Scratch space for anything the program might write (cache, manifests).
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


# ------------------------------------------------------------------ checks


def _table_rows(text: str) -> list[dict[str, str]]:
    """Rows of the first ``TextTable`` in ``text``, keyed by header."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if i and re.fullmatch(r"-+(\+-+)+", line.strip()):
            header = [cell.strip() for cell in lines[i - 1].split("|")]
            rows = []
            for row in lines[i + 1:]:
                if "|" not in row:
                    break
                rows.append(dict(zip(header, (c.strip() for c in row.split("|")))))
            return rows
    return []


def check_table1(stdout: str, units: int) -> int:
    """Failed rows: any row whose measured windows miss the ground truth."""
    rows = _table_rows(stdout)
    if len(rows) != units:
        return units
    return sum(1 for row in rows if row.get("Matches") != "yes")


def check_table3(stdout: str, units: int) -> int:
    """Failed cases: not reproduced, or not stealthy."""
    rows = _table_rows(stdout)
    if len(rows) != units:
        return units
    return sum(1 for row in rows
               if row.get("Reproduced") != "yes" or row.get("Stealthy") != "yes")


def check_fleet(stdout: str, units: int) -> int:
    """Failed homes: not completed, missing, or not covered by the digest."""
    head = re.search(r"^fleet: (\d+) home\(s\), (\d+) completed", stdout, re.M)
    fleet = re.search(r"^fleet digest: ([0-9a-f]+)$", stdout, re.M)
    homes = re.findall(r"^home (\d+): ([0-9a-f]+)$", stdout, re.M)
    if (not head or not fleet or int(head.group(1)) != units
            or [int(index) for index, _ in homes] != list(range(units))):
        return units
    digest = hashlib.blake2b(digest_size=16)
    for _, home in homes:
        digest.update(home.encode() + b"\n")
    if digest.hexdigest() != fleet.group(1):
        return units
    return units - int(head.group(2))


def check_search(stdout: str, units: int) -> int:
    """Failed programs: missing from the report; all, if nothing was found."""
    head = re.search(r"^search: (\d+) program\(s\), (\d+) hit\(s\)", stdout, re.M)
    hits = re.findall(r"^program +\d+: \S+ +holds=(\d+)", stdout, re.M)
    if not head or not re.search(r"^corpus digest: [0-9a-f]+$", stdout, re.M):
        return units
    programs, found = int(head.group(1)), int(head.group(2))
    # Every verified hit carries a witness of at least one hold, and a
    # search over a seeded population always finds some.
    if found == 0 or len(hits) != found or any(int(h) < 1 for h in hits):
        return units
    return max(0, units - programs)


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]   # subcommand and its options
    units: int                 # work items one campaign covers
    check: Callable[[str, int], int]

    def argv(self, seed: int) -> list[str]:
        return ["--seed", str(seed), "--jobs", "1", "--no-cache",
                "--no-manifest", *self.command]


WORKLOADS = {w.name: w for w in (
    # Table I: 36 cloud devices, each profiled over long idle windows and
    # delay-until-timeout trials; keep-alive, TLS and app-protocol timers.
    Workload("table1", ("table1",), 36, check_table1),
    # Table III: 11 short paired runs with and without the attacker; home
    # construction and the attacker's hold path weigh most.
    Workload("table3", ("table3",), 11, check_table3),
    # A sampled population of small homes with rules, stimuli and LAN
    # faults; the fleet engine's per-home build-run-digest cycle.
    Workload("fleet", ("fleet", "--homes", "64", "--digests"), 64, check_fleet),
    # Generated TAP programs re-run under candidate hold schedules and
    # shrunk; many short paired runs through the rule engine.  Programs
    # vary widely in cost: 16 per pass spread the pass times 19%, 32 only 4%.
    Workload("search", ("search", "--programs", "32"), 32, check_search),
)}


# ------------------------------------------------------------------- passes


class BenchError(RuntimeError):
    """The program could not be run: no result is printed."""


def child_env() -> dict[str, str]:
    """The pass's environment: fixed hashing, any file output kept in here."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = os.path.join(WORK_DIR, "cache")
    env["REPRO_MANIFEST_DIR"] = os.path.join(WORK_DIR, "manifests")
    return env


def run_pass(argv: list[str], trace: bool, deadline: float,
             import_only: bool = False) -> dict:
    """One campaign in a fresh interpreter; returns the child's report."""
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if trace:
        cmd.append("--trace")
    if import_only:
        cmd.append("--import-only")
    cmd += ["--", *argv]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"pass printed no report: {lines[-1][:200]}") from exc


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def pass_seed(seed: int, index: int) -> int:
    """The CLI seed of pass ``index`` in a run with benchmark seed ``seed``."""
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for ``seconds``, check each, and summarise them.

    Timed passes each take the next seeded input, so the medians describe
    the workload's input distribution rather than one draw of it.  Traced
    passes repeat the first input, so their call counts repeat exactly.
    After the last pass the first input runs once more, untimed and
    untraced, and must print byte-identical output.
    """
    deadline = time.perf_counter() + RUN_LIMIT_S
    # Warm-up: an import-only child compiles the package's bytecode in a
    # fresh checkout, so no timed pass pays for it.
    run_pass([], trace=False, deadline=deadline, import_only=True)
    reports: list[dict] = []
    attempted = failed = 0
    measure_from = time.perf_counter()
    while not reports or time.perf_counter() - measure_from < seconds:
        index = 0 if trace else len(reports)
        report = run_pass(workload.argv(pass_seed(seed, index)), trace, deadline)
        reports.append(report)
        attempted += workload.units
        failed += (workload.units if report["exit"] != 0
                   else workload.check(report["stdout"], workload.units))
    replay = run_pass(workload.argv(pass_seed(seed, 0)), False, deadline)
    attempted += workload.units
    if replay["exit"] != 0 or replay["stdout"] != reports[0]["stdout"]:
        failed += workload.units
    passes = len(reports)

    if trace:
        layers = {name: {field: median(r["layers"][name][field] for r in reports)
                         for field in ("self_s", "calls", "entries")}
                  for name in LAYERS}
        print(f"{workload.name}: {passes} traced pass(es), median per campaign")
        print(render(layers))
        metrics = {"traced_campaign_s": {
            "value": median(r["campaign_s"] for r in reports), "unit": "s"}}
        for name in LAYERS:
            metrics[f"{name}_self_ms"] = {"value": layers[name]["self_s"] * 1e3, "unit": "ms"}
            metrics[f"{name}_calls"] = {"value": round(layers[name]["calls"]), "unit": "count"}
            metrics[f"{name}_entries"] = {"value": round(layers[name]["entries"]),
                                          "unit": "count"}
    else:
        setups = reports + [replay]
        while len(setups) < MIN_SETUPS:
            setups.append(run_pass([], False, deadline, import_only=True))
        for key, values in (("campaign_s", [r["campaign_s"] for r in reports]),
                            ("probe_s", [r["probe_s"] for r in reports]),
                            ("setup_s", [r["setup_s"] for r in setups]),
                            ("setup_probe_s", [r["setup_probe_s"] for r in setups])):
            q1, q2, q3 = quartiles(values)
            print(f"{workload.name}: raw {key} median {q2:.6f} "
                  f"(quartiles {q1:.6f}..{q3:.6f}) over {len(values)} samples")
        metrics = {
            "campaign_s": {"value": PROBE_REFERENCE_S * median(
                r["campaign_s"] / r["probe_s"] for r in reports), "unit": "s"},
            "setup_s": {"value": PROBE_REFERENCE_S * median(
                r["setup_s"] / r["setup_probe_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": median(r["peak_rss_kb"] for r in reports) / 1024.0,
                            "unit": "MiB"},
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="phantom-delay campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro is missing; nothing to benchmark", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
