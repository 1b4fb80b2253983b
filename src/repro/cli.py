"""Command-line interface: ``phantom-delay <experiment>``.

Each subcommand regenerates one of the paper's artefacts and prints it as a
text table; the same drivers back the pytest-benchmark harness.

The paper artefacts in :mod:`repro.experiments.registry` (Tables I-III,
Figure 3, the verification test, the findings, the countermeasures, TLS
integrity, robustness, jamming and recognition) have no handler here:
their subcommands come from the registry, and :func:`_run_experiment` runs
an entry exactly as the campaign service does.  So ``phantom-delay <name>``
and ``phantom-delay submit <name>`` print the same output by construction.
Every campaign command builds one :class:`~repro.parallel.runner.CampaignRunner`
from ``--jobs``, ``--cache`` and ``--manifest`` and hands it to the driver.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.reporting import TextTable, fmt_window
from .devices.profiles import CATALOGUE
from .experiments.registry import ExperimentSpec, experiment_names, get_experiment
from .parallel.runner import CampaignRunner


def _runner(args: argparse.Namespace) -> CampaignRunner:
    """The execution context of one command, from the global flags.

    ``--no-manifest`` disables the manifests; ``--manifest PATH`` holds the
    command's first campaign, and later ones keep their default paths.
    """
    manifest = False if args.no_manifest else args.manifest or True
    return CampaignRunner(jobs=args.jobs, cache=args.cache, manifest=manifest)


def _print_manifests(runner: CampaignRunner, since: int = 0) -> None:
    """One ``manifest: <path>`` line per manifest the runner wrote."""
    for path in runner.manifest_paths[since:]:
        print(f"manifest: {path}")


def _given_flags(spec: ExperimentSpec, args: argparse.Namespace) -> dict:
    """The global flags ``spec`` takes that the user gave on the command line."""
    given = {
        "labels": args.labels.split(",") if args.labels else None,
        "trials": args.trials,
        "faults": args.faults,
    }
    return {flag: given[flag] for flag in spec.flags if given[flag] is not None}


def _run_experiment(args: argparse.Namespace, name: str,
                    runner: CampaignRunner) -> int:
    """Run one registered experiment the way the campaign service does."""
    spec = get_experiment(name)
    since = len(runner.manifest_paths)
    result = spec.run(**_given_flags(spec, args), seed=args.seed, runner=runner)
    print(spec.render(result))
    _print_manifests(runner, since)
    return spec.status(result)


def _cmd_experiment(args: argparse.Namespace) -> int:
    return _run_experiment(args, args.command, _runner(args))


def _cmd_catalogue(args: argparse.Namespace) -> int:
    table = TextTable(
        ["Label", "Table", "Model", "Kind", "Server", "Connection",
         "e-Delay window", "c-Delay window"],
        title=f"Device catalogue ({len(CATALOGUE)} devices)",
    )
    for profile in CATALOGUE:
        table.add_row(
            profile.label,
            "I" if profile.table == 1 else "II",
            profile.model,
            profile.kind,
            profile.server,
            profile.connection,
            fmt_window(profile.event_delay_window()),
            fmt_window(profile.command_delay_window()),
        )
    print(table.render())
    return 0


def _cmd_export_knowledge(args: argparse.Namespace) -> int:
    """Write the attacker knowledge base (profiled behaviours) to JSON."""
    from .core.knowledge import KnowledgeBase

    path = args.labels or "knowledge.json"  # reuse the free-form option
    kb = KnowledgeBase.from_catalogue()
    kb.save(path)
    print(f"wrote {len(kb)} device behaviours to {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Demonstrate the attack planner over the Table III rule set."""
    from .automation.dsl import parse_rule
    from .core.attacks.planner import AttackPlanner, render_plan

    rules = [
        parse_rule('WHEN c1 contact.open THEN NOTIFY voice "Front door opened"', "case1"),
        parse_rule("WHEN c2 contact.closed THEN COMMAND lk1 lock", "case3"),
        parse_rule(
            "WHEN lk1 lock.unlocked IF m2.motion == inactive THEN COMMAND hs2 disarm", "case5"
        ),
        parse_rule(
            "WHEN c5 contact.open IF pr1.presence == present THEN COMMAND lk1 unlock", "case8"
        ),
        parse_rule(
            "WHEN pr1 presence.away IF lk1.lock == unlocked THEN COMMAND lk1 lock", "case10"
        ),
        parse_rule(
            "WHEN m2 motion.active IF c2.contact == closed THEN COMMAND p1 on", "same-hub"
        ),
    ]
    device_profiles = {
        "c1": CATALOGUE.get("C1"),
        "c2": CATALOGUE.get("C2"),
        "c5": CATALOGUE.get("C5"),
        "m2": CATALOGUE.get("M2"),
        "pr1": CATALOGUE.get("PR1"),
        "lk1": CATALOGUE.get("LK1"),
        "hs2": CATALOGUE.get("HS2"),
        "p1": CATALOGUE.get("P1"),
    }
    planner = AttackPlanner(device_profiles)
    print(render_plan(planner.analyze(rules)))
    return 0


def _cmd_observe_report(args: argparse.Namespace) -> int:
    """Render one campaign run manifest."""
    from .analysis.reporting import render_manifest
    from .obs.manifest import RunManifest

    if len(args.paths) != 1:
        print("observe report takes exactly one manifest path", file=sys.stderr)
        return 2
    try:
        manifest = RunManifest.load(args.paths[0])
    except (OSError, ValueError) as exc:
        print(f"cannot load manifest {args.paths[0]}: {exc}", file=sys.stderr)
        return 2
    print(render_manifest(manifest))
    return 0


def _cmd_observe_diff(args: argparse.Namespace) -> int:
    """Diff two campaign manifests; exit 1 on drift."""
    from .analysis.reporting import render_manifest_diff
    from .obs.manifest import RunManifest, diff_manifests

    if len(args.paths) != 2:
        print("observe diff takes exactly two manifest paths", file=sys.stderr)
        return 2
    try:
        loaded = [RunManifest.load(path) for path in args.paths]
    except (OSError, ValueError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return 2
    diff = diff_manifests(*loaded)
    print(render_manifest_diff(diff))
    return 0 if diff.clean else 1


def _cmd_observe(args: argparse.Namespace) -> int:
    """Observed e-Delay run: metrics table, span tree, delay attribution."""
    if args.action == "report":
        return _cmd_observe_report(args)
    if args.action == "diff":
        return _cmd_observe_diff(args)
    if args.paths:
        print(f"unexpected arguments for observe: {args.paths}", file=sys.stderr)
        return 2

    from .obs.attribution import attribute_delay, link_hold_spans
    from .obs.tracing import Tracer, render_span_tree

    if args.trace:
        # Offline mode: render a previously exported trace.
        spans = Tracer.import_jsonl(args.trace)
        link_hold_spans(spans)
        print(render_span_tree(spans))
        from .analysis.timeline import render_timeline_from_trace

        print()
        print(render_timeline_from_trace(spans))
        return 0

    from .automation.dsl import parse_rule
    from .core.attacker import PhantomDelayAttacker
    from .testbed import SmartHomeTestbed

    home = SmartHomeTestbed(seed=args.seed, observe=True)
    smoke = home.add_device("SM1")
    home.install_rule(
        parse_rule('WHEN sm1 smoke.detected THEN NOTIFY push "SMOKE DETECTED"')
    )
    home.settle()
    attacker = PhantomDelayAttacker.deploy(home)
    delay = attacker.delay_for(smoke)
    home.run(70.0)  # watch a keep-alive pass so the session phase is known
    delay.arm()
    fire_at = home.now
    smoke.stimulate("detected")
    home.run(120.0)

    obs = home.obs
    tracer = obs.tracer
    link_hold_spans(tracer.spans)
    message = next(
        s for s in tracer.spans
        if s.component == "appproto" and s.name == "event:smoke.detected"
    )
    print(obs.registry.render_table())
    print()
    print("Span tree of the delayed smoke alert:")
    print(tracer.render_tree(message.trace_id))
    print()
    attribution = attribute_delay(tracer.spans, message.attrs["msg_id"])
    if attribution is not None:
        print(attribution.render())
    delivered = home.notifier.first_delivery_time("SMOKE DETECTED")
    if delivered is not None:
        print(f"\nphone notification: {delivered - fire_at:.2f}s after ignition "
              f"(alarms: {home.alarms.summary() or 'none'})")
    if args.export_trace:
        count = tracer.export_jsonl(args.export_trace)
        print(f"wrote {count} spans to {args.export_trace}")
    if args.export_metrics:
        count = obs.registry.export_jsonl(args.export_metrics)
        print(f"wrote {count} metrics to {args.export_metrics}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect, verify, or prune the content-addressed campaign cache."""
    from .cache.store import CampaignCache

    cache = CampaignCache()
    if args.action == "stats":
        stats = cache.stats()
        table = TextTable(["Field", "Value"], title="Campaign cache")
        table.add_row("root", stats["root"])
        table.add_row("code fingerprint", stats["fingerprint"])
        table.add_row("entries", stats["entries"])
        table.add_row("fresh", stats["fresh"])
        table.add_row("stale (code changed)", stats["stale"])
        table.add_row("corrupt", stats["corrupt"])
        table.add_row("size", f"{stats['bytes'] / 1024:.1f} KiB")
        table.add_row("replayable wall time", f"{stats['replayable_seconds']:.1f}s")
        if stats["oldest"]:
            table.add_row("oldest entry", stats["oldest"])
            table.add_row("newest entry", stats["newest"])
        print(table.render())
        return 0
    if args.action == "verify":
        outcomes = cache.verify(sample=args.sample, seed=args.sample_seed)
        if not outcomes:
            print("cache is empty; nothing to verify")
            return 0
        for out in outcomes:
            status = "ok" if out.ok else "MISMATCH"
            print(f"{status}  {out.fn}  {out.shard_key}  {out.detail}")
        return 0 if all(o.ok for o in outcomes) else 1
    if args.action == "gc":
        removed, kept, failed = cache.gc(everything=args.all)
        what = "entries" if args.all else "stale/corrupt entries"
        line = f"removed {removed} {what}, kept {kept}"
        if failed:
            line += f", failed to remove {failed}"
        print(line)
        return 1 if failed else 0
    raise AssertionError(f"unknown cache action {args.action!r}")


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Fleet campaigns: run a sampled population, find its breaking point,
    or dump sampled home specs.

    Deterministic facts (counts, digests, specs) go to stdout so CI can
    byte-diff two runs; timing goes to stderr.
    """
    import json

    from .fleet.engine import run_fleet
    from .fleet.sampler import FleetSampler

    if args.action == "spec":
        sampler = FleetSampler(args.seed)
        for spec in sampler.sample_many(args.homes, start=args.start):
            record = spec.to_dict()
            record["digest"] = spec.digest()
            print(json.dumps(record, sort_keys=True))
        return 0

    if args.action == "breaking-point":
        from .experiments.breaking_point import run_breaking_point

        runner = _runner(args)
        report = run_breaking_point(
            start_homes=args.start_homes,
            growth_factor=args.growth_factor,
            max_steps=args.max_steps,
            seed=args.seed,
            batch_size=args.batch_size,
            home_event_budget=args.home_event_budget,
            step_event_limit=args.step_event_limit,
            wall_limit=args.wall_limit,
            success_floor=args.success_floor,
            runner=runner,
        )
        print(report.render())
        _print_manifests(runner)
        return 0

    runner = _runner(args)
    report = run_fleet(
        homes=args.homes,
        seed=args.seed,
        batch_size=args.batch_size,
        event_budget=args.home_event_budget,
        keep_rows=False,
        stream_to=args.stream,
        runner=runner,
    )
    print(
        f"fleet: {report.homes} home(s), {report.completed} completed, "
        f"{report.attacked} attacked, {report.impaired} impaired"
    )
    print(f"events: {report.events}  "
          f"notifications delivered: {report.notifications_delivered}")
    print(f"fleet digest: {report.fleet_digest}")
    if args.digests:
        for index, digest in enumerate(report.digests):
            print(f"home {index}: {digest}")
    if report.results_path is not None:
        print(f"results: {report.results_path}")
    _print_manifests(runner)
    print(
        f"{report.wall_seconds:.2f}s wall, "
        f"{report.homes_per_second:.1f} homes/s ({report.runner_summary})",
        file=sys.stderr,
    )
    return 0 if report.completed == report.homes else 1


def _cmd_search(args: argparse.Namespace) -> int:
    """Adversarial schedule search over generated TAP rule sets.

    Deterministic facts (hits, digests, specs) go to stdout so CI can
    byte-diff two runs; timing goes to stderr.
    """
    import json

    from .search.generator import RuleSetGenerator
    from .search.planner import plan_specs, run_search
    from .search.table3 import TABLE3_EXPECTED, table3_specs

    if args.action == "spec":
        generator = RuleSetGenerator(args.seed)
        for spec in generator.sample_many(args.programs, start=args.start):
            record = spec.to_dict()
            record["digest"] = spec.digest()
            print(json.dumps(record, sort_keys=True))
        return 0

    if args.action == "table3":
        from .search.corpus import corpus_digest

        specs = table3_specs(args.seed)
        outcomes = plan_specs(specs, args.budget)
        hits = []
        status = 0
        for spec, outcome in zip(specs, outcomes):
            case = -spec.program_index
            expected = TABLE3_EXPECTED[case]
            hit = outcome["hit"]
            got = hit["violation"] if hit else "none"
            marker = "ok" if got == expected else "MISMATCH"
            if got != expected:
                status = 1
            holds = len(hit["schedule"]) if hit else 0
            print(f"case {case:2d}: {got:<20} expected {expected:<20} "
                  f"holds={holds} {marker}")
            if hit:
                hits.append(hit)
        print(f"rediscovered {len(hits)}/{len(specs)} cases")
        print(f"corpus digest: {corpus_digest(hits)}")
        return status

    runner = _runner(args)
    report = run_search(
        programs=args.programs,
        seed=args.seed,
        batch_size=args.batch_size,
        budget=args.budget,
        corpus_dir=args.corpus,
        runner=runner,
    )
    for hit in report.hits:
        print(f"program {hit['program_index']:4d}: {hit['violation']:<20} "
              f"holds={len(hit['schedule'])} explored={hit['explored']} "
              f"shrink_steps={hit['shrink_steps']} case={hit['case_digest']}")
    print(f"search: {report.programs} program(s), {len(report.hits)} hit(s), "
          f"{report.explored} candidate(s) explored")
    print(f"corpus digest: {report.corpus_digest}")
    if report.corpus_dir is not None:
        print(f"corpus: {report.corpus_dir} ({len(report.case_paths)} case files)")
    _print_manifests(runner)
    print(
        f"{report.wall_seconds:.2f}s wall, "
        f"{report.candidates_per_second:.1f} candidates/s "
        f"({report.runner_summary})",
        file=sys.stderr,
    )
    return 0 if report.programs == args.programs else 1


def _parse_params(pairs: list[str] | None) -> dict:
    """``--param k=v`` pairs; values parse as JSON, falling back to string."""
    import json

    kwargs: dict = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            kwargs[key] = json.loads(value)
        except json.JSONDecodeError:
            kwargs[key] = value
    return kwargs


def _service_client(args: argparse.Namespace):
    from .service.client import ServiceClient

    if getattr(args, "port", None):
        return ServiceClient(host=args.host, port=args.port)
    return ServiceClient(socket_path=getattr(args, "socket", None))


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the campaign service in the foreground until shut down."""
    from .service.server import serve

    return serve(
        socket_path=args.socket, host=args.host, port=args.port,
        jobs=args.jobs, cache=args.cache,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign spec; by default stream it to completion.

    The rendered result goes to stdout exactly as the one-shot subcommand
    would print it (plus a ``manifest:`` line); progress chatter goes to
    stderr.  The exit code is the experiment's own status rule.
    """
    client = _service_client(args)
    events = client.submit(
        args.experiment, kwargs=_parse_params(args.param), seed=args.seed,
        priority=args.priority, watch=not args.no_wait,
    )
    final = None
    for event in events:
        kind = event.get("event")
        if kind == "accepted":
            how = "coalesced onto" if event.get("deduped") else "queued as"
            print(f"{how} {event['job_id']} (key {event['key']})",
                  file=sys.stderr)
            if args.no_wait:
                print(event["job_id"])
                return 0
        elif kind == "state":
            print(f"{event['job_id']}: {event['state']}", file=sys.stderr)
        elif kind == "progress":
            print(f"{event['job_id']}: {event['done']}/{event['total']} "
                  "shard(s)", file=sys.stderr)
        elif kind in ("result", "cancelled", "error"):
            final = event
            break
    if final is None:
        print("service closed the stream before a terminal event",
              file=sys.stderr)
        return 2
    if final["event"] == "result":
        print(final["output"])
        if final.get("manifest"):
            print(f"manifest: {final['manifest']}")
        return int(final.get("status") or 0)
    if final["event"] == "cancelled":
        print(f"cancelled after {final.get('done')}/{final.get('total')} "
              "shard(s)", file=sys.stderr)
        return 3
    print(f"job failed: {final.get('message')}", file=sys.stderr)
    return 2


def _cmd_status(args: argparse.Namespace) -> int:
    """One table of jobs plus the service counters."""
    status = _service_client(args).status(args.job_id)
    if status.get("event") == "error":
        print(status.get("message"), file=sys.stderr)
        return 2
    table = TextTable(
        ["Job", "Experiment", "Seed", "Prio", "State", "Shards", "Subs",
         "Wall"],
        title=f"Campaign service @ {status['service']['address']}",
    )
    for row in status["jobs"]:
        table.add_row(
            row["job_id"], row["experiment"], row["seed"], row["priority"],
            row["state"], f"{row['done']}/{row['total']}",
            row["submissions"], f"{row['wall_seconds']:.2f}s",
        )
    print(table.render())
    svc = status["service"]
    print(
        f"workers: {svc['workers']}  queued: {svc['queue_depth']}  "
        f"submitted: {svc['submitted']}  coalesced: {svc['coalesced']}  "
        f"completed: {svc['completed']}  failed: {svc['failed']}  "
        f"cancelled: {svc['cancelled']}"
    )
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    ack = _service_client(args).cancel(args.job_id)
    if ack.get("event") == "error":
        print(ack.get("message"), file=sys.stderr)
        return 2
    print(f"{ack['job_id']}: {ack['state']}")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    """Stream a job's events as JSON lines until it reaches a terminal one."""
    import json

    for event in _service_client(args).watch(args.job_id):
        print(json.dumps(event, sort_keys=True))
        if event.get("event") == "error" and "job_id" not in event:
            return 2
        if event.get("event") in ("result", "cancelled", "error"):
            return 0
    return 2


def _cmd_all(args: argparse.Namespace) -> int:
    """Every paper artefact on one runner; each campaign keeps its default manifest."""
    runner = CampaignRunner(jobs=args.jobs, cache=args.cache,
                            manifest=not args.no_manifest)
    status = 0
    for name in ("table1", "table2", "table3", "figure3", "verify",
                 "findings", "countermeasures", "integrity"):
        status |= _run_experiment(args, name, runner)
        print()
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phantom-delay",
        description=(
            "Reproduction of 'IoT Phantom-Delay Attacks' (DSN 2022): "
            "regenerate the paper's tables, figures, and findings on the "
            "simulated smart-home stack."
        ),
    )
    parser.add_argument("--seed", type=int, default=7, help="simulation seed")
    parser.add_argument(
        "--trials", type=int, default=None,
        help=(
            "measurement trials per message type (table1/table2/verify "
            "only; default 3; paper: 20)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help=(
            "worker processes for sharded campaigns (default: cpu count, "
            "capped; 1 = serial; output is identical for every value)"
        ),
    )
    parser.add_argument(
        "--labels", type=str, default=None,
        help="comma-separated device labels (table1/table2 only)",
    )
    parser.add_argument(
        "--faults", type=str, default=None, metavar="PROFILE",
        help=(
            "run the LAN impaired and audit every invariant: a named "
            "profile (ideal/lossy/bursty/jittery/chaotic) or a spec like "
            "'loss=0.05,jitter=0.01' (table3/figure3 only)"
        ),
    )
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "reuse content-addressed shard results from "
            "$REPRO_CACHE_DIR (default ~/.cache/repro-phantom-delay); "
            "--no-cache forces live simulation"
        ),
    )
    parser.add_argument(
        "--manifest", type=str, default=None, metavar="PATH",
        help=(
            "write the command's first campaign run manifest to PATH instead "
            "of the default $REPRO_MANIFEST_DIR/<campaign>.jsonl; later "
            "campaigns keep their default paths (`all` keeps every default; "
            "render one later with `observe report`)"
        ),
    )
    parser.add_argument(
        "--no-manifest", action="store_true",
        help="skip writing the campaign run manifest",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, doc in (
        ("catalogue", _cmd_catalogue, "list the 50-device catalogue"),
        *((name, _cmd_experiment, get_experiment(name).description)
          for name in experiment_names()),
        ("plan", _cmd_plan, "attack planner over an inferred rule set"),
        ("export-knowledge", _cmd_export_knowledge,
         "dump the device-behaviour knowledge base as JSON (--labels sets the path)"),
        ("all", _cmd_all, "run every experiment"),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(func=fn)
    observe = sub.add_parser(
        "observe",
        help=(
            "observed e-Delay run (metrics, span tree, delay attribution); "
            "or `observe report M` / `observe diff A B` over run manifests"
        ),
    )
    observe.add_argument(
        "action", nargs="?", choices=["report", "diff"], default=None,
        help=(
            "report: render a campaign run manifest; diff: compare two "
            "manifests (counts, quantile drift, attribution deltas); "
            "omitted: run the live observed demo"
        ),
    )
    observe.add_argument(
        "paths", nargs="*",
        help="manifest path(s) for report/diff",
    )
    observe.add_argument(
        "--trace", type=str, default=None,
        help="render a previously exported trace JSONL instead of running",
    )
    observe.add_argument(
        "--export-trace", type=str, default=None, help="write spans to this JSONL path"
    )
    observe.add_argument(
        "--export-metrics", type=str, default=None,
        help="write the metrics snapshot to this JSONL path",
    )
    observe.set_defaults(func=_cmd_observe)
    cache = sub.add_parser(
        "cache",
        help="inspect, verify, or prune the content-addressed campaign cache",
    )
    cache.add_argument(
        "action", choices=["stats", "verify", "gc"],
        help="stats: summarise entries; verify: re-run a sample and compare "
             "digests; gc: drop stale/corrupt entries (--all drops everything)",
    )
    cache.add_argument(
        "--sample", type=int, default=3, metavar="N",
        help="how many fresh entries `verify` re-runs (default 3)",
    )
    cache.add_argument(
        "--sample-seed", type=int, default=0, metavar="S",
        help=(
            "seed for `verify`'s deterministic sample over all fresh "
            "entries (default 0; vary it to cover different entries)"
        ),
    )
    cache.add_argument(
        "--all", action="store_true",
        help="`gc` removes every entry, not just stale/corrupt ones",
    )
    cache.set_defaults(func=_cmd_cache)
    fleet = sub.add_parser(
        "fleet",
        help=(
            "population-scale campaigns: run a fleet of sampled homes, "
            "climb a step-load ladder to its breaking point, or dump "
            "sampled home specs"
        ),
    )
    fleet.add_argument(
        "action", nargs="?", choices=["run", "breaking-point", "spec"],
        default="run",
        help=(
            "run: simulate a fleet of --homes sampled homes (default); "
            "breaking-point: N -> 2N -> 4N... until a budget trips; "
            "spec: print sampled home specs as JSONL without running them"
        ),
    )
    fleet.add_argument(
        "--homes", type=int, default=64, metavar="N",
        help="fleet size for run/spec (default 64)",
    )
    fleet.add_argument(
        "--start", type=int, default=0, metavar="I",
        help="first home index for `spec` (default 0)",
    )
    fleet.add_argument(
        "--batch-size", type=int, default=16, metavar="N",
        help=(
            "homes per shard (default 16; fixed per campaign so cache "
            "keys never depend on --jobs)"
        ),
    )
    fleet.add_argument(
        "--home-event-budget", type=int, default=None, metavar="N",
        help=(
            "per-home scheduler event cap; a home over budget counts as "
            "failed instead of aborting the fleet"
        ),
    )
    fleet.add_argument(
        "--stream", type=str, default=None, metavar="PATH",
        help="append one JSON result row per home to PATH (run only)",
    )
    fleet.add_argument(
        "--digests", action="store_true",
        help="print every per-home digest (run only; CI diffs this)",
    )
    fleet.add_argument(
        "--start-homes", type=int, default=4, metavar="N",
        help="breaking-point: first rung of the ladder (default 4)",
    )
    fleet.add_argument(
        "--growth-factor", type=int, default=2, metavar="K",
        help="breaking-point: population multiplier per step (default 2)",
    )
    fleet.add_argument(
        "--max-steps", type=int, default=4, metavar="S",
        help="breaking-point: maximum ladder steps (default 4)",
    )
    fleet.add_argument(
        "--step-event-limit", type=int, default=None, metavar="N",
        help="breaking-point: stop when one step exceeds N simulated events",
    )
    fleet.add_argument(
        "--wall-limit", type=float, default=None, metavar="SECONDS",
        help="breaking-point: stop when one step takes longer than this",
    )
    fleet.add_argument(
        "--success-floor", type=float, default=0.95, metavar="F",
        help=(
            "breaking-point: stop when the completed-home fraction drops "
            "below F (default 0.95)"
        ),
    )
    fleet.set_defaults(func=_cmd_fleet)
    search = sub.add_parser(
        "search",
        help=(
            "adversarial schedule search: generate seeded TAP rule sets, "
            "find minimal hold schedules that provably subvert them, or "
            "rediscover the Table III cases differentially"
        ),
    )
    search.add_argument(
        "action", nargs="?", choices=["run", "table3", "spec"],
        default="run",
        help=(
            "run: search --programs generated rule sets for verified "
            "violations (default); table3: rediscover the 11 encoded "
            "paper cases and check the classified effects; spec: print "
            "generated program specs as JSONL without running them"
        ),
    )
    search.add_argument(
        "--programs", type=int, default=32, metavar="N",
        help="generated programs for run/spec (default 32)",
    )
    search.add_argument(
        "--start", type=int, default=0, metavar="I",
        help="first program index for `spec` (default 0)",
    )
    search.add_argument(
        "--batch-size", type=int, default=8, metavar="N",
        help=(
            "programs per shard (default 8; fixed per campaign so cache "
            "keys never depend on --jobs)"
        ),
    )
    search.add_argument(
        "--budget", type=int, default=8, metavar="N",
        help="candidate schedules explored per program (default 8)",
    )
    search.add_argument(
        "--corpus", type=str, default=None, metavar="DIR",
        help="write one JSONL case file per verified hit into DIR",
    )
    search.set_defaults(func=_cmd_search)

    def _add_service_transport(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket", type=str, default=None, metavar="PATH",
            help=(
                "unix socket path (default $REPRO_SERVICE_SOCKET or "
                "<cache dir>/service.sock)"
            ),
        )
        p.add_argument(
            "--host", type=str, default="127.0.0.1",
            help="TCP host when --port is given (default 127.0.0.1)",
        )
        p.add_argument(
            "--port", type=int, default=None, metavar="N",
            help="serve/connect over TCP instead of the unix socket",
        )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the campaign service: a job queue over the shared worker "
            "pool with content-addressed dedup and streamed progress"
        ),
    )
    _add_service_transport(serve)
    serve.set_defaults(func=_cmd_serve)
    submit = sub.add_parser(
        "submit",
        help=(
            "submit an experiment to a running service and stream it to "
            "completion (output is byte-identical to the one-shot command)"
        ),
    )
    submit.add_argument(
        "experiment",
        help=f"registered experiment name ({', '.join(experiment_names())})",
    )
    submit.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="driver kwarg; VALUE parses as JSON, else a string "
             "(repeatable, e.g. --param trials=5)",
    )
    submit.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="larger runs first; ties are FIFO (default 0)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and detach instead of streaming",
    )
    _add_service_transport(submit)
    submit.set_defaults(func=_cmd_submit)
    status = sub.add_parser("status", help="list the service's jobs and counters")
    status.add_argument("job_id", nargs="?", default=None,
                        help="limit to one job")
    _add_service_transport(status)
    status.set_defaults(func=_cmd_status)
    cancel = sub.add_parser(
        "cancel",
        help="cancel a job (queued: instant; running: at the next shard)",
    )
    cancel.add_argument("job_id")
    _add_service_transport(cancel)
    cancel.set_defaults(func=_cmd_cancel)
    watch = sub.add_parser(
        "watch", help="stream a job's event lines as JSON until it finishes"
    )
    watch.add_argument("job_id")
    _add_service_transport(watch)
    watch.set_defaults(func=_cmd_watch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
