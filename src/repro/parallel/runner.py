"""Sharded campaign execution over a process pool.

The paper's evaluation is embarrassingly parallel: 36 cloud profiles,
14 local profiles, 11 PoC cases, and every ablation/countermeasure sweep
are independent simulations that only meet again at the output table.
:class:`CampaignRunner` fans those shards out across a fork
:class:`SharedWorkerPool` and merges results back **in submission order**,
so a parallel campaign renders byte-identically to a serial one.

Determinism rules:

* a shard is called with ``seed=`` exactly when its :attr:`Shard.seed` is
  set, so nothing positional or temporal ever reaches it;
* results are merged by shard index, not completion order;
* shard functions are pure (fresh testbed in, plain rows out), so running
  them in another process cannot observe different state.

One loop runs the shards the cache did not answer.  It runs them
in-process when ``jobs`` resolves to 1, when one shard is pending, or when
the platform cannot fork (fork is what makes the warm parent image — ~130
imported modules — free to replicate; a spawn pool would re-import the
world per worker), and on the pool otherwise.  A shard whose future fails
for infrastructure reasons (a killed worker, an unpicklable result) is
re-run in-process in its place; genuine errors re-raise there with their
original traceback.

With a :class:`~repro.cache.store.CampaignCache` attached, every shard is first
looked up by its content address — fully-qualified function, canonical
kwargs, seed, and the source-tree fingerprint — and hits skip
process dispatch entirely: a warm campaign is file reads plus rendering,
byte-identical to the cold run for every ``jobs`` value.

A run's one account is its shard rows.  The runner writes each shard's
:class:`~repro.obs.manifest.ShardRow` (seed, cached, replayed, stored,
usage, events) when it books the shard, and the completed count, the cache
hits, the progress line, ``on_progress`` and the manifest all read those
rows.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from ..cache.store import CacheKey, CampaignCache, resolve_cache
from ..obs import telemetry
from ..obs.manifest import RunManifest, ShardRow, manifest_path_for
from ..obs.metrics import MetricsRegistry

#: ``--jobs`` defaults to the CPU count but never above this: the shards
#: are CPU-bound simulations, and a wall of workers on a big host mostly
#: buys scheduler contention.
JOBS_CAP = 8


class CampaignCancelled(RuntimeError):
    """Raised by :meth:`CampaignRunner.run` when its cancel signal trips.

    Cancellation is cooperative and shard-granular: every shard that
    completed before the signal was observed has already been stored to
    the cache and booked (entries are written atomically), so the cache is
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


@dataclass(frozen=True)
class Shard:
    """One independent unit of a campaign (usually: one device / one case).

    ``fn`` must be a module-level callable (workers import it by qualified
    name) and ``kwargs`` picklable.  The runner calls ``fn(**kwargs)``,
    with ``seed=seed`` added exactly when ``seed`` is set.
    """

    key: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def call_kwargs(self) -> dict[str, Any]:
        """What ``fn`` is called with: ``kwargs``, plus ``seed`` when set."""
        if self.seed is None:
            return self.kwargs
        return {**self.kwargs, "seed": self.seed}


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
    """A fork pool of ``jobs`` workers that outlives the campaigns it runs.

    Every pool run of a :class:`CampaignRunner` goes through one.  A runner
    given ``pool=`` (a service multiplexing many jobs over the same
    workers) never shuts it down; a runner without one builds one for the
    run and shuts it down however the run ends.  The executor starts
    lazily (or eagerly via :meth:`prewarm`, which a threaded host should
    call while the process is still single-threaded so the fork is clean)
    and lives until :meth:`shutdown`.

    A worker that dies under the pool (an OOM kill, a SIGKILL) breaks its
    executor for good, so :meth:`submit` replaces a broken executor and
    counts the replacement in :attr:`rebuilds`.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        #: Broken executors replaced so far.
        self.rebuilds = 0
        self._executor: ProcessPoolExecutor | None = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            ctx = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=ctx, initializer=_warm_up
            )
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Submit ``fn(*args)``, replacing a broken executor once first.

        If the new executor refuses the call too, its error propagates.
        """
        try:
            return self.executor().submit(fn, *args)
        except BrokenProcessPool:
            self.shutdown()
            self.rebuilds += 1
            return self.executor().submit(fn, *args)

    def prewarm(self) -> None:
        """Fork every worker now (one trivial dispatch spawns them all)."""
        self.submit(_pool_ping).result()

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None


def _pool_ping() -> int:
    """No-op worker task used by :meth:`SharedWorkerPool.prewarm`."""
    return os.getpid()


#: What one shard run returns: result, wall seconds, metrics, usage.
Outcome = tuple[Any, float, MetricsRegistry, telemetry.ShardUsage]


def _run_shard(shard: Shard) -> Outcome:
    """Execute one shard (worker side).

    The shard function runs inside a :func:`repro.obs.telemetry.capture`,
    which folds the registry it hands over and every simulator it
    constructs into the one registry returned, beside the worker's own
    resource account (wall/CPU seconds, peak RSS).
    """
    start_cpu = telemetry.cpu_seconds_now()
    start = time.perf_counter()
    with telemetry.capture() as cap:
        result = shard.fn(**shard.call_kwargs())
    end = time.perf_counter()
    usage = telemetry.ShardUsage.measure(start, end, start_cpu)
    return result, end - start, cap.finish(result), usage


def _events(metrics: MetricsRegistry | None) -> int:
    """Scheduler events a shard's simulations processed."""
    if metrics is None:
        return 0
    return int(metrics.value("scheduler", "events_processed"))


class CampaignRunner:
    """Runs lists of :class:`Shard`\\ s and returns results in shard order.

    A runner is the execution context a caller builds once: worker count,
    cache, manifest policy, shared pool, cancel signal and progress
    observer.  Each :meth:`run` names its campaign and base seed, so one
    runner can carry a command that runs several campaigns; each run keeps
    its own shard rows and writes its own manifest.  An explicit manifest
    path holds the runner's first campaign; every later campaign writes
    its default path.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: CampaignCache | bool | None = None,
        manifest: "bool | str | os.PathLike | None" = True,
        pool: SharedWorkerPool | None = None,
        cancel: Any = None,
        on_progress: Callable[[int, int], None] | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        #: The campaign label and base seed of the current (or last) run.
        self.campaign = "campaign"
        self.base_seed = 0
        #: Shared pool (service mode); ``None`` means each pool run builds
        #: its own and shuts it down.
        self.pool = pool
        #: Cancel signal: a ``threading.Event`` (or anything with
        #: ``is_set``) or a zero-argument callable.  Checked between shard
        #: completions; when it trips, ``run()`` raises
        #: :class:`CampaignCancelled` once what already finished is stored.
        if cancel is None or callable(cancel):
            self._cancel_check = cancel
        else:
            self._cancel_check = cancel.is_set
        #: Observer called as ``on_progress(done, total)`` after each shard
        #: is booked (cache hits included).  Exceptions are swallowed — an
        #: observer must never take a campaign down.
        self._on_progress = on_progress
        self.last_wall_seconds = 0.0
        #: Manifest policy: ``True`` writes each campaign's default path,
        #: a path takes the first campaign (later ones write their default
        #: path), ``False``/``None`` disables the artifact.
        self.manifest = manifest
        #: The last ``run()``'s shard metrics, merged in shard order.
        self.last_metrics = MetricsRegistry()
        self.last_manifest: RunManifest | None = None
        self.last_manifest_path: Path | None = None
        #: Every manifest a ``run()`` wrote, in run order.
        self.manifest_paths: list[Path] = []
        #: Cache lookups of the current (or last) run that found no entry,
        #: and that found one written by another source tree.
        self.cache_misses = 0
        self.cache_stale = 0
        self._rows: dict[int, ShardRow] = {}
        self._total = 0
        self._fault_profile: str | None = None
        self._run_started = 0.0
        self._progress_last = 0.0
        self._progress_width = 0
        self.cache = resolve_cache(cache) if cache else None

    # ------------------------------------------------------------ execution

    def cancelled(self) -> bool:
        """True once the runner's cancel signal (if any) has tripped."""
        return bool(self._cancel_check is not None and self._cancel_check())

    def run(self, shards: Sequence[Shard], campaign: str = "campaign",
            base_seed: int = 0) -> list[Any]:
        """Execute every shard of ``campaign``; results come back in
        ``shards`` order.

        ``base_seed`` is the campaign's seed of record in its manifest;
        each shard's own seed is its :attr:`Shard.seed`.  With a cache
        attached the run is hybrid: hits are filled from disk without
        touching a worker, and only the misses (plus entries made stale by
        a source change) run, each stored as it completes.

        If a ``cancel`` signal was attached and trips mid-campaign,
        :class:`CampaignCancelled` is raised once every shard completed so
        far is stored — re-running the same campaign later resumes from
        those entries.
        """
        shards = list(shards)
        self.campaign = campaign
        self.base_seed = base_seed
        self._rows = {}
        self._total = len(shards)
        self.cache_misses = self.cache_stale = 0
        self._run_started = start = time.perf_counter()
        self._progress_last = 0.0
        results: list[Any] = [None] * len(shards)
        metrics: list[MetricsRegistry | None] = [None] * len(shards)
        keys: list[CacheKey | None] = [None] * len(shards)
        try:
            pending = []
            for index, shard in enumerate(shards):
                if self.cache is not None:
                    keys[index] = key = self.cache.key_for(shard)
                    lookup = self.cache.get(key)
                    if lookup.hit:
                        results[index] = lookup.result
                        metrics[index] = lookup.metrics
                        self._book(ShardRow(index, shard.key, shard.seed, cached=True,
                                            events=_events(lookup.metrics)))
                        continue
                    if lookup.stale:
                        self.cache_stale += 1
                    else:
                        self.cache_misses += 1
                pending.append(index)
            for index, outcome, replayed in self._outcomes(shards, pending):
                result, elapsed, registry, usage = outcome
                results[index], metrics[index] = result, registry
                shard = shards[index]
                self._book(ShardRow(
                    index, shard.key, shard.seed,
                    replayed=replayed,
                    stored=self._store(shard, keys[index], result, elapsed, registry),
                    wall_seconds=usage.wall_seconds,
                    cpu_seconds=usage.cpu_seconds,
                    peak_rss_kb=usage.peak_rss_kb,
                    events=_events(registry),
                ))
            if self.completed < len(shards):
                raise CampaignCancelled(campaign, self.completed, len(shards))
            self._finalize(shards, metrics)
            return results
        finally:
            self.last_wall_seconds = time.perf_counter() - start
            self._progress_clear()

    def _outcomes(self, shards: list[Shard],
                  pending: list[int]) -> Iterator[tuple[int, Outcome, bool]]:
        """Run the ``pending`` shards; yield ``(index, outcome, replayed)``
        as each one completes.

        In-process, the cancel signal is checked before each shard.  On the
        pool, a future that fails is replayed in-process in its place: the
        shard is pure, so the replay either heals the run or re-raises the
        shard's genuine error with a usable traceback.  Once the cancel
        signal trips, every queued future is revoked and the running ones
        drain, each still yielded.
        """
        workers = min(self.jobs, len(pending))
        if workers <= 1 or not fork_available():
            for index in pending:
                if self.cancelled():
                    return
                yield index, _run_shard(shards[index]), False
            return
        if self.cancelled():
            return
        pool = self.pool if self.pool is not None else SharedWorkerPool(workers)
        try:
            futures = {pool.submit(_run_shard, shards[index]): index
                       for index in pending}
            revoked = False
            for future in as_completed(futures):
                if future.cancelled():
                    continue
                index = futures[future]
                try:
                    outcome, replayed = future.result(), False
                except Exception:
                    outcome, replayed = _run_shard(shards[index]), True
                yield index, outcome, replayed
                if not revoked and self.cancelled():
                    revoked = True
                    for other in futures:
                        other.cancel()
        finally:
            if pool is not self.pool:
                pool.shutdown()

    def _store(self, shard: Shard, key: CacheKey | None, result: Any,
               elapsed: float, metrics: MetricsRegistry) -> bool:
        """Put one shard's result in the cache; False if the put failed."""
        if key is None:  # no cache attached
            return True
        try:
            self.cache.put(key, result, wall_seconds=elapsed,
                           call=(shard.fn, shard.call_kwargs()), metrics=metrics)
        except Exception:
            # A result the cache cannot store (unpicklable, disk full)
            # must not kill a run that already completed — especially a
            # replayed shard that was healed in-process moments ago.  The
            # run degrades to uncached, and the shard's manifest row says
            # so.
            return False
        return True

    def _book(self, row: ShardRow) -> None:
        """Book one finished shard: its row is the run's account of it."""
        self._rows[row.index] = row
        self._progress_tick()
        if self._on_progress is not None:
            try:
                self._on_progress(self.completed, self._total)
            except Exception:
                pass  # observers never take the campaign down

    # ---------------------------------------------------------- aggregation

    @staticmethod
    def _fault_profile_of(shards: list[Shard]) -> str | None:
        for shard in shards:
            faults = shard.kwargs.get("faults")
            if faults is not None:
                return getattr(faults, "name", None) or str(faults)
        return None

    def _finalize(self, shards: list[Shard],
                  metrics: list[MetricsRegistry | None]) -> None:
        """Merge shard metrics (in shard order) and emit the manifest.

        Shard order keeps even histogram totals (float sums) bit-identical
        from run to run; a shard without metrics (a cache entry stored
        without them) adds nothing.
        """
        self.last_metrics = MetricsRegistry()
        for registry in metrics:
            if registry is not None:
                self.last_metrics.merge(registry)
        self._fault_profile = self._fault_profile_of(shards)
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
            fault_profile=self._fault_profile,
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
    def last_shard_rows(self) -> tuple[ShardRow, ...]:
        """The rows of the current (or last) run's booked shards, in shard
        order."""
        return tuple(self._rows[index] for index in sorted(self._rows))

    @property
    def completed(self) -> int:
        return len(self._rows)

    @property
    def cache_hits(self) -> int:
        return sum(row.cached for row in self._rows.values())

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
        aggregate simulated-event throughput so far.
        """
        elapsed = (
            time.perf_counter() - self._run_started if self._run_started else 0.0
        )
        done, total = self.completed, self._total
        events = sum(row.events for row in self._rows.values())
        line = f"{self.campaign}: {done}/{total} shard(s)"
        # Guard the percentage (and everything derived from counts) against
        # an empty campaign: a fleet of zero homes produces zero shards, and
        # ``done / total`` must not take the line down with it.
        if total:
            line += f" ({100.0 * done / total:.0f}%)"
        if done and total and done < total:
            eta = elapsed / done * (total - done)
            line += f"  eta {eta:.1f}s"
        if elapsed > 0 and events:
            line += f"  {events / elapsed:,.0f} ev/s"
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
                f" (cache: {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es), {self.cache_stale} stale)"
            )
        return line


def runner_or_serial(runner: CampaignRunner | None) -> CampaignRunner:
    """``runner``, or what a driver runs on when its caller gave none:
    serial, uncached, writing each campaign's default manifest."""
    return runner if runner is not None else CampaignRunner(jobs=1)
