"""Sharded campaign execution over a process pool.

The paper's evaluation is embarrassingly parallel: 36 cloud profiles,
14 local profiles, 11 PoC cases, and every ablation/countermeasure sweep
are independent simulations that only meet again at the output table.
:class:`CampaignRunner` fans those shards out across a
``ProcessPoolExecutor`` and merges results back **in submission order**, so
a parallel campaign renders byte-identically to a serial one.

Determinism rules:

* every shard carries its own seed — either set explicitly by the driver
  or derived as :func:`~repro.parallel.seeds.derive_seed`\\ ``(base_seed,
  shard.key)`` — never anything positional or temporal;
* results are merged by shard index, not completion order;
* shard functions are pure (fresh testbed in, plain rows out), so running
  them in another process cannot observe different state.

Execution falls back to plain in-process loops when ``jobs`` resolves
to 1, when there is only one shard, or when the platform cannot fork
(fork is what makes the warm parent image — ~130 imported modules —
free to replicate; a spawn pool would re-import the world per worker).
A shard whose future fails for infrastructure reasons (broken pool,
unpicklable result) is transparently re-run in-process; genuine errors
re-raise there with their original traceback.

With a :class:`~repro.cache.CampaignCache` attached, every shard is first
looked up by its content address — fully-qualified function, canonical
kwargs, resolved seed, and the source-tree fingerprint — and hits skip
process dispatch entirely: a warm campaign is file reads plus rendering,
byte-identical to the cold run for every ``jobs`` value.

Progress is surfaced through a :class:`~repro.obs.metrics.MetricsRegistry`
(the ``parallel`` component): shard counts, cache hit/miss/stale counts,
in-flight gauge, and a per-shard wall-time histogram, so
``CampaignRunner.render_progress()`` drops straight into the existing
observability tooling.  The counters keep one shard one booking:
``shards_completed`` counts each shard exactly once per run (cache hit,
pool completion, serial run, or failure replay), ``shards_run_inprocess``
counts only the no-pool path, and ``shards_replayed`` counts pool-failure
replays — so ``completed == total`` always holds after a healed run.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..obs import telemetry
from ..obs.manifest import RunManifest, ShardRow, manifest_path_for
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import ShardTelemetry
from .seeds import derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from ..cache import CacheKey, CampaignCache

#: ``--jobs`` defaults to the CPU count but never above this: the shards
#: are CPU-bound simulations, and a wall of workers on a big host mostly
#: buys scheduler contention.
JOBS_CAP = 8


class CampaignCancelled(RuntimeError):
    """Raised by :meth:`CampaignRunner.run` when its cancel signal trips.

    Cancellation is cooperative and shard-granular: every shard that
    completed before the signal was observed has already been booked and
    stored to the cache (entries are written atomically), so the cache is
    consistent and a resubmission of the same campaign resumes from those
    entries instead of recomputing them.
    """

    def __init__(self, campaign: str, done: int, total: int) -> None:
        super().__init__(
            f"campaign {campaign!r} cancelled after {done}/{total} shard(s)"
        )
        self.campaign = campaign
        self.done = done
        self.total = total


class _Cancelled(Exception):
    """Internal: carries the outcomes that completed before the signal."""

    def __init__(self, outcomes: list) -> None:
        self.outcomes = outcomes


@dataclass(frozen=True)
class Shard:
    """One independent unit of a campaign (usually: one device / one case).

    ``fn`` must be a module-level callable (workers import it by qualified
    name) and ``kwargs`` picklable.  When ``pass_seed`` is true the runner
    injects ``seed=`` — the explicit ``seed`` if given, else
    ``derive_seed(base_seed, key)``.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    pass_seed: bool = True


def resolve_jobs(jobs: int | None) -> int:
    """Worker count for a campaign: explicit, else ``REPRO_JOBS``, else
    ``os.cpu_count()`` capped at :data:`JOBS_CAP`."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer worker count, got {env!r} "
                    "(unset it or use e.g. REPRO_JOBS=4)"
                ) from None
        else:
            jobs = min(os.cpu_count() or 1, JOBS_CAP)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    return jobs


def fork_available() -> bool:
    """True when the platform can fork worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def _warm_up() -> None:
    """Worker initializer: touch the heavy experiment stack once per worker.

    With fork these imports are already resolved in the parent image, so
    the call costs nothing; it exists so every worker pays any residual
    first-use cost (codec tables, catalogue construction) once instead of
    inside its first shard's timing.
    """
    import repro.experiments.table1  # noqa: F401
    import repro.experiments.table2  # noqa: F401
    import repro.experiments.table3  # noqa: F401
    import repro.testbed  # noqa: F401


class SharedWorkerPool:
    """One long-lived fork pool shared by many :class:`CampaignRunner`\\ s.

    A runner normally owns its pool for the duration of one ``run()``; a
    service that multiplexes many jobs over the same workers hands each
    runner one of these via ``pool=`` instead, and the runner dispatches to
    :meth:`executor` without ever shutting it down.  The pool starts lazily
    (or eagerly via :meth:`prewarm`, which a threaded host should call
    while the process is still single-threaded so the fork is clean) and
    lives until :meth:`shutdown`.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._executor: ProcessPoolExecutor | None = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            ctx = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=ctx, initializer=_warm_up
            )
        return self._executor

    def prewarm(self) -> None:
        """Fork every worker now (one trivial dispatch spawns them all)."""
        self.executor().submit(_pool_ping).result()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def _pool_ping() -> int:
    """No-op worker task used by :meth:`SharedWorkerPool.prewarm`."""
    return os.getpid()


def _run_shard(shard: Shard, base_seed: int) -> tuple[Any, float, ShardTelemetry]:
    """Execute one shard (worker side).

    Returns ``(result, wall seconds, telemetry)``: the shard function runs
    inside a :func:`repro.obs.telemetry.capture`, so the registry it hands
    over and every simulator it constructs are folded into one registry,
    which rides back across the process boundary in a
    :class:`~repro.obs.telemetry.ShardTelemetry` with the result, along
    with the worker's own resource account (wall/CPU seconds, peak RSS).
    """
    kwargs = shard.kwargs
    if shard.pass_seed:
        kwargs = dict(kwargs)
        kwargs["seed"] = (
            shard.seed if shard.seed is not None else derive_seed(base_seed, shard.key)
        )
    start_cpu = telemetry.cpu_seconds_now()
    start = time.perf_counter()
    with telemetry.capture() as cap:
        result = shard.fn(**kwargs)
    end = time.perf_counter()
    usage = telemetry.ShardUsage.measure(start, end, start_cpu)
    return result, end - start, cap.finish(result, usage)


class CampaignRunner:
    """Runs lists of :class:`Shard`\\ s and returns results in shard order.

    A runner is the execution context a caller builds once: worker count,
    cache, manifest policy, shared pool, cancel signal and progress
    observer.  Each :meth:`run` names its campaign and base seed, so one
    runner can carry a command that runs several campaigns; the
    ``parallel`` metrics are booked under each run's ``campaign`` label and
    every run writes its own manifest.  An explicit manifest path holds the
    runner's first campaign; every later campaign writes its default path.
    """

    def __init__(
        self,
        jobs: int | None = None,
        registry: MetricsRegistry | None = None,
        cache: "CampaignCache | bool | None" = None,
        manifest: "bool | str | os.PathLike | None" = True,
        pool: SharedWorkerPool | None = None,
        cancel: Any = None,
        on_progress: Callable[[int, int], None] | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        #: The campaign label and base seed of the current (or last) run.
        self.campaign = "campaign"
        self.base_seed = 0
        #: Shared executor (service mode); ``None`` means the runner owns a
        #: pool per ``run()`` as before.
        self.pool = pool
        #: Cancel signal: a ``threading.Event`` (or anything with
        #: ``is_set``) or a zero-argument callable.  Checked between shard
        #: completions; when it trips, ``run()`` stores what finished and
        #: raises :class:`CampaignCancelled`.
        if cancel is None or callable(cancel):
            self._cancel_check = cancel
        else:
            self._cancel_check = cancel.is_set
        #: Observer called as ``on_progress(done, total)`` after each shard
        #: is booked (cache hits included).  Exceptions are swallowed — an
        #: observer must never take a campaign down.
        self._on_progress = on_progress
        self.registry = registry if registry is not None else MetricsRegistry()
        self.last_wall_seconds = 0.0
        #: Manifest policy: ``True`` writes each campaign's default path,
        #: a path takes the first campaign (later ones write their default
        #: path), ``False``/``None`` disables the artifact.
        self.manifest = manifest
        #: Per-shard telemetry of the last ``run()`` (None for shards that
        #: carried none, e.g. pre-telemetry cache entries).
        self.last_telemetry: list[ShardTelemetry | None] = []
        #: The last ``run()``'s shard metrics, merged in shard order.
        self.last_metrics = MetricsRegistry()
        self.last_shard_rows: tuple[ShardRow, ...] = ()
        self.last_manifest: RunManifest | None = None
        self.last_manifest_path: Path | None = None
        #: Every manifest a ``run()`` wrote, in run order.
        self.manifest_paths: list[Path] = []
        self._run_total = 0
        self._run_done = 0
        self._booked: set[int] = set()
        self._events_seen = 0
        self._run_started = 0.0
        self._progress_last = 0.0
        self._progress_width = 0
        if cache:
            # Lazy import: repro.cache pulls in repro.parallel.seeds, so a
            # module-level import here would be circular.
            from ..cache import resolve_cache

            self.cache = resolve_cache(cache)
        else:
            self.cache = None

    def _bind_metrics(self, campaign: str) -> None:
        """Point the progress metrics at ``campaign``'s label."""
        self._total = self.registry.counter("parallel", "shards_total", campaign=campaign)
        self._completed = self.registry.counter(
            "parallel", "shards_completed", campaign=campaign
        )
        self._failed = self.registry.counter("parallel", "shard_failures", campaign=campaign)
        self._inproc = self.registry.counter(
            "parallel", "shards_run_inprocess", campaign=campaign
        )
        self._replayed = self.registry.counter(
            "parallel", "shards_replayed", campaign=campaign
        )
        self._cache_hits = self.registry.counter("parallel", "cache_hits", campaign=campaign)
        self._cache_misses = self.registry.counter(
            "parallel", "cache_misses", campaign=campaign
        )
        self._cache_stale = self.registry.counter("parallel", "cache_stale", campaign=campaign)
        self._cache_put_failures = self.registry.counter(
            "parallel", "cache_put_failures", campaign=campaign
        )
        self._in_flight = self.registry.gauge("parallel", "shards_in_flight", campaign=campaign)
        self._shard_seconds = self.registry.histogram(
            "parallel", "shard_seconds", campaign=campaign
        )
        # Worker-side resource accounting (satellite): the wall clock above
        # is driver-side and hides serialisation; these come from
        # ``getrusage`` inside the shard wrapper.
        self._shard_cpu_seconds = self.registry.histogram(
            "parallel", "shard_cpu_seconds", campaign=campaign
        )
        self._worker_rss = self.registry.gauge(
            "parallel", "worker_peak_rss_kb", campaign=campaign
        )
        self._events_processed = self.registry.counter(
            "parallel", "events_processed", campaign=campaign
        )

    # ------------------------------------------------------------ execution

    def cancelled(self) -> bool:
        """True once the runner's cancel signal (if any) has tripped."""
        return bool(self._cancel_check is not None and self._cancel_check())

    def run(self, shards: Sequence[Shard], campaign: str = "campaign",
            base_seed: int = 0) -> list[Any]:
        """Execute every shard of ``campaign``; results come back in
        ``shards`` order.

        ``base_seed`` seeds every shard that sets no explicit seed (see
        :func:`~repro.parallel.seeds.derive_seed`).  With a cache attached
        the run is hybrid: hits are filled from disk without touching a
        worker, and only the misses (plus entries made stale by a source
        change) are dispatched and then stored.

        If a ``cancel`` signal was attached and trips mid-campaign, every
        shard completed so far is stored to the cache and
        :class:`CampaignCancelled` is raised — re-running the same
        campaign later resumes from those entries.
        """
        shards = list(shards)
        self.campaign = campaign
        self.base_seed = base_seed
        self._bind_metrics(campaign)
        self._total.inc(len(shards))
        self._run_total = len(shards)
        self._run_done = 0
        self._booked = set()
        self._events_seen = 0
        self._run_started = start = time.perf_counter()
        self._progress_last = 0.0
        try:
            if not shards:
                self.last_telemetry = []
                self._finalize(shards, [])
                return []
            results: list[Any] = [None] * len(shards)
            keys: list["CacheKey | None"] = [None] * len(shards)
            telemetry_rows: list[ShardTelemetry | None] = [None] * len(shards)
            self.last_telemetry = telemetry_rows
            pending = self._fill_from_cache(shards, results, keys, telemetry_rows)
            if pending:
                workers = min(self.jobs, len(pending))
                try:
                    if self.cancelled():
                        raise _Cancelled([])
                    if workers <= 1 or not fork_available():
                        outcomes = []
                        for index in pending:
                            if self.cancelled():
                                raise _Cancelled(outcomes)
                            outcomes.append(
                                (index, *self._run_serial(shards[index], index))
                            )
                    else:
                        outcomes = self._run_pool(shards, pending, workers)
                except _Cancelled as exc:
                    # Keep (and cache) everything that finished before the
                    # signal was seen, then surface the cancellation.
                    for index, result, elapsed, shard_telemetry in exc.outcomes:
                        results[index] = result
                        telemetry_rows[index] = shard_telemetry
                        self._store(shards[index], keys[index], result,
                                    elapsed, shard_telemetry)
                    raise CampaignCancelled(
                        self.campaign, self._run_done, self._run_total
                    ) from None
                for index, result, elapsed, shard_telemetry in outcomes:
                    results[index] = result
                    telemetry_rows[index] = shard_telemetry
                    self._store(shards[index], keys[index], result, elapsed,
                                shard_telemetry)
            self._finalize(shards, keys)
            return results
        finally:
            self.last_wall_seconds = time.perf_counter() - start
            self._progress_clear()

    def _fill_from_cache(
        self,
        shards: list[Shard],
        results: list[Any],
        keys: list["CacheKey | None"],
        telemetry_rows: list[ShardTelemetry | None],
    ) -> list[int]:
        """Populate ``results`` with hits; return the indices still to run."""
        if self.cache is None:
            return list(range(len(shards)))
        pending: list[int] = []
        for index, shard in enumerate(shards):
            key = self.cache.key_for(shard, self.base_seed)
            keys[index] = key
            lookup = self.cache.get(key)
            if lookup.hit:
                results[index] = lookup.result
                if isinstance(lookup.telemetry, ShardTelemetry):
                    # The cached telemetry is the deterministic part only;
                    # ``cached`` is this run's annotation, never stored.
                    telemetry_rows[index] = replace(lookup.telemetry, cached=True)
                self._book(index, self._cache_hits, telemetry_rows[index])
            else:
                (self._cache_stale if lookup.stale else self._cache_misses).inc()
                pending.append(index)
        return pending

    def _store(self, shard: Shard, key: "CacheKey | None", result: Any,
               elapsed: float, shard_telemetry: ShardTelemetry | None = None) -> None:
        if self.cache is None or key is None:
            return
        kwargs = dict(shard.kwargs)
        if shard.pass_seed:
            kwargs["seed"] = key.seed
        try:
            self.cache.put(
                key, result, wall_seconds=elapsed, call=(shard.fn, kwargs),
                telemetry=(shard_telemetry.deterministic()
                           if shard_telemetry is not None else None),
            )
        except Exception:
            # A result the cache cannot store (unpicklable, disk full)
            # must not kill a run that already completed — especially a
            # replayed shard that was healed in-process moments ago.  The
            # run degrades to uncached; the failure is counted so it
            # surfaces in the manifest rather than vanishing.
            self._cache_put_failures.inc()

    def _book_usage(self, shard_telemetry: ShardTelemetry | None) -> None:
        """Record the worker's resource account into the parallel component."""
        usage = shard_telemetry.usage if shard_telemetry is not None else None
        if usage is None:
            return
        self._shard_cpu_seconds.observe(usage.cpu_seconds)
        if usage.peak_rss_kb > self._worker_rss.value:
            self._worker_rss.set(usage.peak_rss_kb)

    def _book_progress(self, shard_telemetry: ShardTelemetry | None) -> None:
        self._run_done += 1
        if shard_telemetry is not None:
            events = shard_telemetry.events_processed()
            self._events_seen += events
            self._events_processed.inc(events)
        self._progress_tick()
        if self._on_progress is not None:
            try:
                self._on_progress(self._run_done, self._run_total)
            except Exception:
                pass  # observers never take the campaign down

    def _book(
        self,
        index: int,
        kind_counter: Any,
        shard_telemetry: ShardTelemetry | None,
        elapsed: float | None = None,
    ) -> None:
        """Book one shard's completion, structurally at most once per run.

        Every completion path — cache hit, serial, pool success, replay —
        funnels through here, and ``self._booked`` makes double-booking
        impossible even if a shard reaches two paths in one run (e.g. a
        replay of something already filled from cache), so
        ``shards_completed`` can never exceed ``shards_total``.
        """
        if index in self._booked:
            return
        self._booked.add(index)
        if kind_counter is not None:
            kind_counter.inc()
        self._completed.inc()
        if elapsed is not None:
            self._shard_seconds.observe(elapsed)
        self._book_usage(shard_telemetry)
        self._book_progress(shard_telemetry)

    def _run_serial(self, shard: Shard,
                    index: int) -> tuple[Any, float, ShardTelemetry]:
        """The no-pool path: ``jobs=1``, a single pending shard, or no fork."""
        result, elapsed, shard_telemetry = _run_shard(shard, self.base_seed)
        self._book(index, self._inproc, shard_telemetry, elapsed)
        return result, elapsed, shard_telemetry

    def _replay(self, shard: Shard,
                index: int) -> tuple[Any, float, ShardTelemetry]:
        """In-process replay of a shard whose pool future failed.

        Books the shard exactly once via :meth:`_book`: it counts as
        completed (it did complete — here) and as replayed, but never as
        a pool completion or an in-process run on top, and never at all
        if the same index was already booked (say, as a cache hit).  The
        telemetry carries ``replayed=True`` so the manifest row
        distinguishes a healed run from a clean one.
        """
        result, elapsed, shard_telemetry = _run_shard(shard, self.base_seed)
        shard_telemetry = replace(shard_telemetry, replayed=True)
        self._book(index, self._replayed, shard_telemetry, elapsed)
        return result, elapsed, shard_telemetry

    def _run_pool(
        self, shards: list[Shard], pending: list[int], workers: int
    ) -> list[tuple[int, Any, float, ShardTelemetry]]:
        if self.pool is not None:
            # Shared executor (service mode): dispatch without shutting
            # the pool down — it outlives this campaign.
            return self._dispatch(self.pool.executor(), shards, pending)
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx, initializer=_warm_up
        ) as pool:
            return self._dispatch(pool, shards, pending)

    def _dispatch(
        self, pool: ProcessPoolExecutor, shards: list[Shard], pending: list[int]
    ) -> list[tuple[int, Any, float, ShardTelemetry]]:
        outcomes: list[tuple[int, Any, float, ShardTelemetry]] = []
        cancelled_midway = False
        futures = {}
        for index in pending:
            futures[pool.submit(_run_shard, shards[index], self.base_seed)] = index
            self._in_flight.inc()
        for future in as_completed(futures):
            if future.cancelled():
                continue  # revoked below; its in-flight count is settled
            index = futures[future]
            self._in_flight.dec()
            try:
                result, elapsed, shard_telemetry = future.result()
            except Exception:
                # Infrastructure failure (broken pool, unpicklable
                # result, worker OOM-kill): the shard itself is pure,
                # so replaying it in-process either heals the run or
                # re-raises the shard's genuine error with a usable
                # traceback.
                self._failed.inc()
                result, elapsed, shard_telemetry = self._replay(
                    shards[index], index
                )
            else:
                self._book(index, None, shard_telemetry, elapsed)
            outcomes.append((index, result, elapsed, shard_telemetry))
            if not cancelled_midway and self.cancelled():
                # Revoke everything not yet started; shards already on a
                # worker run to completion and are collected (and cached)
                # by the remaining loop iterations.
                cancelled_midway = True
                for other in futures:
                    if other.cancel():
                        self._in_flight.dec()
        if cancelled_midway:
            raise _Cancelled(outcomes)
        return outcomes

    # ---------------------------------------------------------- aggregation

    def _resolved_seed(self, shard: Shard) -> int | None:
        if not shard.pass_seed:
            return None
        if shard.seed is not None:
            return shard.seed
        return derive_seed(self.base_seed, shard.key)

    @staticmethod
    def _fault_profile_of(shards: list[Shard]) -> str | None:
        for shard in shards:
            faults = shard.kwargs.get("faults")
            if faults is not None:
                return getattr(faults, "name", None) or str(faults)
        return None

    def _finalize(self, shards: list[Shard],
                  keys: list["CacheKey | None"]) -> None:
        """Merge shard telemetry (in shard order) and emit the manifest."""
        self.last_metrics = telemetry.merge_telemetry(self.last_telemetry)
        self.last_shard_rows = tuple(
            ShardRow.from_telemetry(
                index,
                shard.key,
                keys[index].seed if index < len(keys) and keys[index] is not None
                else self._resolved_seed(shard),
                self.last_telemetry[index] if index < len(self.last_telemetry)
                else None,
            )
            for index, shard in enumerate(shards)
        )
        self._last_fault_profile = self._fault_profile_of(shards)
        if self.manifest is not None and self.manifest is not False:
            explicit = self.manifest is not True and not self.manifest_paths
            self.manifest_paths.append(self.write_manifest(
                self.manifest if explicit else None
            ))

    def write_manifest(self, path: "str | os.PathLike | None" = None) -> Path:
        """Write the last run's manifest; returns the path written."""
        manifest = RunManifest.build(
            campaign=self.campaign,
            seed=self.base_seed,
            jobs=self.jobs,
            metrics=self.last_metrics,
            shard_rows=self.last_shard_rows,
            fault_profile=getattr(self, "_last_fault_profile", None),
            cache_fingerprint=self.cache.fingerprint if self.cache else None,
            wall_seconds=time.perf_counter() - self._run_started
            if self._run_started else self.last_wall_seconds,
        )
        target = manifest_path_for(self.campaign, path)
        self.last_manifest = manifest
        self.last_manifest_path = manifest.write(target)
        return self.last_manifest_path

    # ------------------------------------------------------------- progress

    @property
    def completed(self) -> int:
        return int(self._completed.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    #: Seconds between live progress-line repaints.
    PROGRESS_INTERVAL = 0.25

    def _progress_stream(self):
        stream = sys.stderr
        return stream if hasattr(stream, "isatty") and stream.isatty() else None

    def _progress_tick(self, force: bool = False) -> None:
        """Repaint the live progress line (tty-only, throttled).

        Goes to stderr so campaign stdout stays byte-identical between
        runs — the cache round-trip CI job diffs stdout.
        """
        stream = self._progress_stream()
        if stream is None:
            return
        now = time.perf_counter()
        if not force and now - self._progress_last < self.PROGRESS_INTERVAL:
            return
        self._progress_last = now
        # Render exactly once per tick: rendering twice (once to write,
        # once to measure) doubled the work and let a counter bumped
        # between the two calls mis-pad the line.
        line = self.render_progress()
        stream.write("\r" + line.ljust(self._progress_width))
        self._progress_width = max(self._progress_width, len(line))
        stream.flush()

    def _progress_clear(self) -> None:
        stream = self._progress_stream()
        if stream is None or not self._progress_width:
            return
        stream.write("\r" + " " * self._progress_width + "\r")
        stream.flush()
        self._progress_width = 0

    def render_progress(self) -> str:
        """The live one-line account of the run in flight.

        Shard progress, ETA extrapolated from completed shards, and the
        aggregate simulated-event throughput so far.  (The full metrics
        table is still available via ``registry.render_table('parallel')``.)
        """
        elapsed = (
            time.perf_counter() - self._run_started if self._run_started else 0.0
        )
        done, total = self._run_done, self._run_total
        line = f"{self.campaign}: {done}/{total} shard(s)"
        # Guard the percentage (and everything derived from counts) against
        # an empty campaign: a fleet of zero homes produces zero shards, and
        # ``done / total`` must not take the line down with it.
        if total:
            line += f" ({100.0 * done / total:.0f}%)"
        if done and total and done < total:
            eta = elapsed / done * (total - done)
            line += f"  eta {eta:.1f}s"
        if elapsed > 0 and self._events_seen:
            line += f"  {self._events_seen / elapsed:,.0f} ev/s"
        line += f"  [{elapsed:.1f}s]"
        return line

    def summary(self) -> str:
        """One-line account of the last ``run()`` for log output."""
        line = (
            f"{self.campaign}: {self.completed} shard(s) via "
            f"{min(self.jobs, max(self.completed, 1))} worker(s) in "
            f"{self.last_wall_seconds:.2f}s wall"
        )
        if self.cache is not None:
            line += (
                f" (cache: {int(self._cache_hits.value)} hit(s), "
                f"{int(self._cache_misses.value)} miss(es), "
                f"{int(self._cache_stale.value)} stale)"
            )
        return line


def runner_or_serial(runner: CampaignRunner | None) -> CampaignRunner:
    """``runner``, or what a driver runs on when its caller gave none:
    serial, uncached, writing each campaign's default manifest."""
    return runner if runner is not None else CampaignRunner(jobs=1)
