"""`CampaignService`: the asyncio job-queue front-end over cache + runner.

One service owns one :class:`~repro.parallel.runner.SharedWorkerPool` and
multiplexes every accepted campaign over it:

* **Dedup** — each :class:`~repro.service.protocol.JobSpec` is
  content-addressed with the same digest machinery the shard cache uses;
  a submission whose key matches an in-flight (or already completed) job
  coalesces onto it instead of executing again.  Below job granularity,
  the runner's shard cache dedupes against *everything that ever ran*,
  service or CLI alike.
* **Priority scheduling** — queued jobs run highest ``priority`` first,
  FIFO within a band, one campaign at a time on the shared pool (the
  pool parallelises shards, so a second concurrent campaign would only
  fight it for workers).
* **Cooperative cancellation** — ``cancel`` flips the job's
  ``threading.Event``; the runner observes it between shard completions,
  stores everything that finished (the cache stays consistent, atomic
  entries only), and raises
  :class:`~repro.parallel.runner.CampaignCancelled`.
* **Streaming** — watchers get line-JSON ``state``/``progress`` events as
  shards book, then one terminal ``result`` event carrying the rendered
  output (byte-identical to the one-shot CLI), the one-per-job manifest
  path, and the merged deterministic metrics snapshot.

Everything that mutates job state runs on the event loop; the executing
campaign lives in a single worker thread and talks back only through
``call_soon_threadsafe`` and its cancel event.
"""

from __future__ import annotations

import asyncio
import contextlib
import inspect
import itertools
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from ..experiments.registry import experiment_names, get_experiment
from ..obs.manifest import RunManifest, manifest_dir
from ..obs.metrics import MetricsRegistry
from ..parallel.runner import (
    CampaignCancelled,
    CampaignRunner,
    SharedWorkerPool,
    fork_available,
    resolve_jobs,
)
from .jobs import Job
from .protocol import JobSpec, ProtocolError, decode, encode

#: Per-line size limit for the asyncio transports; result events carry a
#: rendered table plus the metrics snapshot, well past the 64 KiB default.
LINE_LIMIT = 8 * 1024 * 1024

#: Terminal event kinds — a stream ends after sending one of these.
TERMINAL_EVENTS = frozenset({"result", "cancelled", "error"})


class CampaignService:
    """Accepts campaign specs and serves them off one shared worker pool."""

    def __init__(self, jobs: int | None = None, cache: Any = True) -> None:
        workers = resolve_jobs(jobs)
        #: Shards of every job dispatch here; ``None`` (no fork, or a
        #: single worker) means jobs run serially inside the executor
        #: thread — same results, no pool.
        self.pool = SharedWorkerPool(workers) if (
            workers > 1 and fork_available()
        ) else None
        self.jobs = workers
        self.cache = cache
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter("service", "jobs_submitted")
        self._coalesced = self.metrics.counter("service", "jobs_coalesced")
        self._completed = self.metrics.counter("service", "jobs_completed")
        self._failed = self.metrics.counter("service", "jobs_failed")
        self._cancelled = self.metrics.counter("service", "jobs_cancelled")
        self._queue_depth = self.metrics.gauge("service", "queue_depth")
        self._job_seconds = self.metrics.histogram("service", "job_wall_seconds")
        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, Job] = {}
        self._ids = itertools.count(1)
        self._orders = itertools.count(1)
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        #: One campaign executes at a time; the *shards* parallelise.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="campaign-exec"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._shutdown: asyncio.Event | None = None
        self._socket_path: Path | None = None
        self.address = ""

    # ------------------------------------------------------------ lifecycle

    async def start(self, socket_path: "str | Path | None" = None,
                    host: str = "127.0.0.1", port: int = 0) -> str:
        """Bind (unix socket if ``socket_path``, else TCP) and go live."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.pool is not None:
            # Fork every worker before any client (or executor) thread
            # exists, so the children never inherit a mid-operation lock.
            self.pool.prewarm()
        if socket_path is not None:
            path = Path(socket_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.unlink(missing_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(path), limit=LINE_LIMIT
            )
            self._socket_path = path
            self.address = str(path)
        else:
            self._server = await asyncio.start_server(
                self._handle, host, port, limit=LINE_LIMIT
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"{bound[0]}:{bound[1]}"
        self._scheduler_task = self._loop.create_task(self._scheduler())
        return self.address

    def request_shutdown(self) -> None:
        """Stop serving (thread-safe); `wait_shutdown` waiters wake up."""
        if self._loop is not None and self._shutdown is not None:
            self._loop.call_soon_threadsafe(self._shutdown.set)

    async def wait_shutdown(self) -> None:
        assert self._shutdown is not None, "service not started"
        await self._shutdown.wait()

    async def close(self) -> None:
        """Tear down: stop accepting, cancel active jobs, drain the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for job in self._jobs.values():
            if job.active:
                job.cancel_event.set()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
            self._scheduler_task = None
        # The running campaign (if any) observes its cancel event between
        # shards, so this wait is bounded by one shard's runtime.
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
        if self.pool is not None:
            self.pool.shutdown()
        if self._socket_path is not None:
            self._socket_path.unlink(missing_ok=True)
            self._socket_path = None

    # ------------------------------------------------------------ job intake

    def submit(self, spec: JobSpec) -> tuple[Job, bool]:
        """Accept one spec; returns ``(job, coalesced)`` (loop thread only).

        A spec whose content address matches an active or successfully
        completed job coalesces onto it — the campaign executes once and
        every submitter watches the same stream.  Failed and cancelled
        jobs do *not* memoise: resubmitting one schedules a fresh run
        (which resumes from whatever its predecessor already cached).
        Kwargs that the experiment's ``run`` cannot take alongside ``seed``
        and ``runner`` raise :class:`ProtocolError`, and nothing is queued.
        """
        experiment = get_experiment(spec.experiment)  # unknown names fail fast
        try:
            inspect.signature(experiment.run).bind(
                **spec.kwargs, seed=spec.seed, runner=None)
        except TypeError as exc:
            raise ProtocolError(
                f"{spec.experiment!r} cannot take kwargs {sorted(spec.kwargs)}: {exc}"
            ) from None
        key = spec.key()
        existing = self._by_key.get(key)
        if existing is not None and (existing.active or existing.state == "done"):
            existing.submissions += 1
            self._coalesced.inc()
            return existing, True
        job = Job(f"job-{next(self._ids)}", spec, key, order=next(self._orders))
        self._jobs[job.job_id] = job
        self._by_key[key] = job
        self._submitted.inc()
        self._queue_depth.inc()
        self._queue.put_nowait(((-spec.priority, job.order), job))
        return job, False

    def cancel(self, job_id: str) -> Job:
        """Cancel by id (loop thread only); terminal jobs are left alone.

        Queued jobs cancel instantly; the running job's campaign stops
        cooperatively at the next shard completion.  Cancellation applies
        to the *execution*, so every coalesced submitter sees it.
        """
        job = self._jobs.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        if job.terminal:
            return job
        job.cancel_event.set()
        if job.state == "queued":
            self._queue_depth.dec()
            job.state = "cancelled"
            self._cancelled.inc()
            job.publish({
                "event": "cancelled", "done": 0, "total": job.progress_total,
            })
        return job

    # ------------------------------------------------------------ execution

    async def _scheduler(self) -> None:
        """Pop jobs in priority order and run them one at a time."""
        assert self._loop is not None
        while True:
            _, job = await self._queue.get()
            if job.state != "queued":
                continue  # cancelled while waiting
            self._queue_depth.dec()
            job.set_state("running")
            start = time.perf_counter()
            try:
                payload = await self._loop.run_in_executor(
                    self._executor, self._execute, job
                )
            except CampaignCancelled as exc:
                job.wall_seconds = time.perf_counter() - start
                job.state = "cancelled"
                self._cancelled.inc()
                job.publish({
                    "event": "cancelled", "done": exc.done, "total": exc.total,
                })
            except Exception as exc:
                job.wall_seconds = time.perf_counter() - start
                job.state = "failed"
                self._failed.inc()
                job.publish({
                    "event": "error",
                    "message": f"{type(exc).__name__}: {exc}",
                })
            else:
                job.wall_seconds = time.perf_counter() - start
                job.state = "done"
                self._completed.inc()
                self._job_seconds.observe(job.wall_seconds)
                payload["wall_seconds"] = round(job.wall_seconds, 6)
                job.publish(payload)

    def _execute(self, job: Job) -> dict[str, Any]:
        """Run one campaign (executor thread); returns the result event."""
        spec = job.spec
        experiment = get_experiment(spec.experiment)
        loop = self._loop
        assert loop is not None

        def on_progress(done: int, total: int) -> None:
            loop.call_soon_threadsafe(self._note_progress, job, done, total)

        runner = CampaignRunner(
            jobs=self.jobs,
            cache=self.cache,
            manifest=self._manifest_path(job),
            pool=self.pool,
            cancel=job.cancel_event,
            on_progress=on_progress,
        )
        result = experiment.run(**spec.kwargs, seed=spec.seed, runner=runner)
        event: dict[str, Any] = {
            "event": "result",
            "status": experiment.status(result),
            "output": experiment.render(result),
            "manifest": None,
            "metrics": [],
            "shards": 0,
            "cached_shards": 0,
        }
        if runner.manifest_paths:
            # A multi-campaign job reports its first campaign throughout:
            # the one its manifest holds.
            path = runner.manifest_paths[0]
            manifest = RunManifest.load(path)
            event.update(
                manifest=str(path),
                metrics=[dict(r) for r in manifest.metrics],
                shards=manifest.header["shards"],
                cached_shards=manifest.header["cached_shards"],
            )
        return event

    def _manifest_path(self, job: Job) -> Path:
        """One manifest per job, content-addressed like its cache entries."""
        return manifest_dir() / "service" / f"{job.key}.jsonl"

    def _note_progress(self, job: Job, done: int, total: int) -> None:
        job.progress_done, job.progress_total = done, total
        job.publish({"event": "progress", "done": done, "total": total})

    # ------------------------------------------------------------- protocol

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = decode(line)
                op = request.get("op")
                handler = {
                    "submit": self._op_submit,
                    "status": self._op_status,
                    "watch": self._op_watch,
                    "cancel": self._op_cancel,
                    "shutdown": self._op_shutdown,
                }.get(op)
                if handler is None:
                    raise ProtocolError(f"unknown op {op!r}")
                await handler(request, writer)
            except (ProtocolError, KeyError) as exc:
                message = exc.args[0] if exc.args else str(exc)
                await self._send(writer, {"event": "error", "message": str(message)})
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; its job (if any) keeps running
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(self, writer: asyncio.StreamWriter,
                    event: dict[str, Any]) -> None:
        writer.write(encode(event))
        await writer.drain()

    async def _stream(self, job: Job, writer: asyncio.StreamWriter) -> None:
        queue = job.subscribe()
        try:
            while True:
                event = await queue.get()
                await self._send(writer, event)
                if event.get("event") in TERMINAL_EVENTS:
                    return
        finally:
            job.unsubscribe(queue)

    async def _op_submit(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        spec = JobSpec.from_payload(request.get("spec"))
        job, coalesced = self.submit(spec)
        await self._send(writer, {
            "event": "accepted",
            "job_id": job.job_id,
            "key": job.key,
            "experiment": spec.experiment,
            "state": job.state,
            "deduped": coalesced,
        })
        if request.get("watch", True):
            await self._stream(job, writer)

    async def _op_watch(self, request: dict[str, Any],
                        writer: asyncio.StreamWriter) -> None:
        job = self._jobs.get(str(request.get("job_id")))
        if job is None:
            raise ProtocolError(f"unknown job {request.get('job_id')!r}")
        await self._stream(job, writer)

    async def _op_cancel(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job = self.cancel(str(request.get("job_id")))
        await self._send(writer, {
            "event": "cancel-ack", "job_id": job.job_id, "state": job.state,
        })

    async def _op_status(self, request: dict[str, Any],
                         writer: asyncio.StreamWriter) -> None:
        job_id = request.get("job_id")
        if job_id is not None:
            job = self._jobs.get(str(job_id))
            if job is None:
                raise ProtocolError(f"unknown job {job_id!r}")
            rows = [job.snapshot()]
        else:
            rows = [job.snapshot() for job in self._jobs.values()]
        await self._send(writer, {
            "event": "status",
            "jobs": rows,
            "experiments": experiment_names(),
            "service": {
                "address": self.address,
                "workers": self.jobs,
                "queue_depth": int(self._queue_depth.value),
                "submitted": int(self._submitted.value),
                "coalesced": int(self._coalesced.value),
                "completed": int(self._completed.value),
                "failed": int(self._failed.value),
                "cancelled": int(self._cancelled.value),
            },
        })

    async def _op_shutdown(self, request: dict[str, Any],
                           writer: asyncio.StreamWriter) -> None:
        await self._send(writer, {"event": "shutdown"})
        self.request_shutdown()


# ----------------------------------------------------------------- hosting


def serve(socket_path: "str | Path | None" = None, host: str = "127.0.0.1",
          port: int | None = None, jobs: int | None = None,
          cache: Any = True) -> int:
    """Blocking entry point behind ``phantom-delay serve``."""

    async def _amain() -> None:
        service = CampaignService(jobs=jobs, cache=cache)
        if port is not None:
            await service.start(host=host, port=port)
        else:
            from .client import default_socket_path

            await service.start(socket_path=socket_path or default_socket_path())
        # Installed once start() has forked the pool, so the workers keep
        # the default handlers.  A stop signal runs the same teardown as a
        # client's shutdown, which shuts the pool down with the service.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.request_shutdown)
        print(f"phantom-delay service listening on {service.address}",
              flush=True)
        try:
            await service.wait_shutdown()
        finally:
            await service.close()

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


class ServiceHandle:
    """A service hosted on a background thread (tests, embedding)."""

    def __init__(self, service: CampaignService,
                 thread: threading.Thread) -> None:
        self.service = service
        self.thread = thread

    @property
    def address(self) -> str:
        return self.service.address

    def stop(self, timeout: float = 30.0) -> None:
        self.service.request_shutdown()
        self.thread.join(timeout=timeout)


def start_in_thread(socket_path: "str | Path", jobs: int | None = 1,
                    cache: Any = True, timeout: float = 30.0) -> ServiceHandle:
    """Run a :class:`CampaignService` on a daemon thread until stopped.

    The thread owns the event loop; the caller talks to the service over
    its unix socket with :class:`~repro.service.client.ServiceClient`.
    """
    started = threading.Event()
    holder: dict[str, Any] = {}

    async def _amain() -> None:
        service = CampaignService(jobs=jobs, cache=cache)
        await service.start(socket_path=socket_path)
        holder["service"] = service
        started.set()
        try:
            await service.wait_shutdown()
        finally:
            await service.close()

    def _main() -> None:
        try:
            asyncio.run(_amain())
        except BaseException as exc:  # surface startup failures to the caller
            holder.setdefault("error", exc)
            started.set()

    thread = threading.Thread(target=_main, name="campaign-service", daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):
        raise RuntimeError("campaign service did not start in time")
    if "error" in holder:
        raise RuntimeError("campaign service failed to start") from holder["error"]
    return ServiceHandle(holder["service"], thread)
