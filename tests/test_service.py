"""Tests for the campaign service (``repro.service``).

The service's contract has three legs:

* **dedup** — submissions with the same content address coalesce onto one
  execution (in-flight or already completed), while failed/cancelled jobs
  never memoise;
* **equivalence** — a served result is byte-identical to the one-shot CLI
  invocation of the same experiment, cold or warm cache;
* **cancellation** — cancelling mid-campaign stops between shards and
  leaves the cache consistent, so a resubmission resumes from it.

Service fixtures run with ``jobs=1`` (serial in-process shards): the shared
fork pool is covered in ``test_parallel.py``, and forking from the
multi-threaded pytest process would trip the dev-mode warning gate.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.registry import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    register,
    unregister,
)
from repro.service.client import ServiceClient
from repro.service.protocol import JobSpec, ProtocolError, decode, encode
from repro.service.server import start_in_thread


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "spec": {"experiment": "table1"}}
        assert decode(encode(message)) == message

    def test_encode_is_one_canonical_line(self):
        data = encode({"b": 1, "a": 2})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data.index(b'"a"') < data.index(b'"b"')

    @pytest.mark.parametrize("line", [b"", b"   \n", b"not json\n", b"[1]\n"])
    def test_decode_rejects_garbage(self, line):
        with pytest.raises(ProtocolError):
            decode(line)

    @pytest.mark.parametrize("payload", [
        None,
        {},
        {"experiment": ""},
        {"experiment": 7},
        {"experiment": "table1", "kwargs": []},
        {"experiment": "table1", "seed": "7"},
        {"experiment": "table1", "seed": True},
        {"experiment": "table1", "priority": 1.5},
        {"experiment": "table1", "bogus": 1},
    ])
    def test_spec_validation_rejects_bad_payloads(self, payload):
        with pytest.raises(ProtocolError):
            JobSpec.from_payload(payload)

    def test_spec_payload_roundtrip(self):
        spec = JobSpec("table1", {"trials": 2}, seed=3, priority=1)
        assert JobSpec.from_payload(spec.to_payload()) == spec


class TestJobKey:
    def test_key_ignores_kwarg_order_and_priority(self):
        a = JobSpec("table1", {"trials": 2, "labels": ["C1"]}, seed=7, priority=0)
        b = JobSpec("table1", {"labels": ["C1"], "trials": 2}, seed=7, priority=9)
        assert a.key() == b.key()

    def test_key_is_sensitive_to_what_executes(self):
        base = JobSpec("table1", {"trials": 2}, seed=7)
        assert base.key() != JobSpec("table2", {"trials": 2}, seed=7).key()
        assert base.key() != JobSpec("table1", {"trials": 3}, seed=7).key()
        assert base.key() != JobSpec("table1", {"trials": 2}, seed=8).key()


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"table1", "table2", "table3", "figure3", "verify",
                "robustness"} <= set(experiment_names())

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("nope")

    def test_register_refuses_to_shadow(self):
        spec = get_experiment("table1")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)


def _findings_result():
    from repro.experiments.findings import (
        Finding1Result,
        Finding2Row,
        Finding3Result,
    )

    return (
        Finding1Result(device_timed_out=True, reconnected=True,
                       half_open_during=2, half_open_after=0, offline_alarms=0),
        [Finding2Row(delay=delay, delivered_to_engine=delay <= 30.0,
                     discarded=delay > 30.0, alarms=0)
         for delay in (10.0, 30.0, 35.0)],
        Finding3Result(hold_duration=40.0, downlink_data_packets=0,
                       server_still_believes_online=True),
    )


def _jamming_result():
    from repro.experiments.jamming_contrast import ContrastRow

    return [
        ContrastRow("phantom-delay", 0, 0, 0, True, 25.0),
        ContrastRow("drop-segments", 4, 0, 0, True, 26.0),
        ContrastRow("drop-all", 6, 1, 1, False, None),
    ]


def _countermeasures_result():
    from repro.experiments.countermeasures import (
        AckTimeoutRow,
        DetectionResult,
        RemediationResult,
        StaticArpRow,
        TimestampDefenseRow,
        TrafficRow,
    )

    return (
        [AckTimeoutRow(timeout, (0.0, 60.0), delay, True)
         for timeout, delay in ((None, 43.9), (30.0, 28.0), (10.0, 8.0))],
        [TrafficRow(120.0, (0.0, 120.0), 100.0, None, 900.0),
         TrafficRow(30.0, (0.0, 30.0), 400.0, 420.0, 200.0),
         TrafficRow(2.0, (0.0, 2.0), 6000.0, 5500.0, 20.0)],
        [TimestampDefenseRow(attack, window, "", attack_succeeded=(
            window is None or attack != "spurious via delayed trigger"))
         for attack in ("spurious via delayed trigger",
                        "spurious via delayed condition (Case 8)",
                        "state-update delay (Case 1)")
         for window in (None, 10.0)],
        DetectionResult(threshold=10.0, detections=1, detected=True),
        [StaticArpRow(hardened=False, hold_triggered=True, event_delay=20.0),
         StaticArpRow(hardened=True, hold_triggered=False, event_delay=0.1)],
        RemediationResult(spuriously_unlocked=True, remediated=True,
                          exposure=30.0),
    )


#: Results on which every claim holds, built without a simulation.
CLAIM_RESULTS = {
    "findings": _findings_result,
    "jamming": _jamming_result,
    "countermeasures": _countermeasures_result,
}

#: One broken claim each: (experiment, index path to one object of the
#: result, the field values that break the claim).
BROKEN_CLAIMS = [
    ("findings", (0,), {"offline_alarms": 1}),
    ("findings", (1, 2), {"delivered_to_engine": True}),
    ("findings", (1, 0), {"alarms": 1}),
    ("findings", (2,), {"downlink_data_packets": 1}),
    ("jamming", (0,), {"alarms": 1}),
    ("jamming", (0,), {"event_delivered": False}),
    ("jamming", (1,), {"retransmissions": 0}),
    ("jamming", (2,), {"retransmissions": 0, "reconnects": 0, "alarms": 0}),
    ("countermeasures", (0, 2), {"achieved_delay": 50.0}),
    ("countermeasures", (0, 1), {"achieved_delay": None}),
    ("countermeasures", (0, 1), {"stealthy": False}),
    ("countermeasures", (1, 2), {"analytic_bytes_per_hour": 50.0,
                                 "measured_bytes_per_hour": None}),
    ("countermeasures", (1, 1), {"measured_bytes_per_hour": 520.0}),
    ("countermeasures", (1, 2), {"battery_days": 40.0}),
    ("countermeasures", (2, 1), {"attack_succeeded": True}),
    ("countermeasures", (2, 3), {"attack_succeeded": False}),
    ("countermeasures", (3,), {"detected": False}),
    ("countermeasures", (4, 1), {"hold_triggered": True, "event_delay": 20.0}),
    ("countermeasures", (5,), {"exposure": 5.0}),
]


class TestStatusRules:
    @pytest.mark.parametrize("experiment", sorted(CLAIM_RESULTS))
    def test_every_claim_holding_gives_status_0(self, experiment):
        status = get_experiment(experiment).status
        assert status(CLAIM_RESULTS[experiment]()) == 0

    @pytest.mark.parametrize(
        "experiment,path,fields", BROKEN_CLAIMS,
        ids=[f"{name}-{'.'.join(map(str, path))}-{'-'.join(fields)}"
             for name, path, fields in BROKEN_CLAIMS],
    )
    def test_one_broken_claim_gives_status_1(self, experiment, path, fields):
        result = CLAIM_RESULTS[experiment]()
        target = result
        for index in path:
            target = target[index]
        for name, value in fields.items():
            setattr(target, name, value)
        assert get_experiment(experiment).status(result) == 1


# Toy experiments: module-level so cached calls stay picklable.  Each
# execution appends one line to a log file, which is how the dedup tests
# count actual executions.

def _toy_run(log: str, tag: str = "x", seed: int = 7, runner=None):
    with open(log, "a") as fh:
        fh.write(f"{tag}/{seed}\n")
    return [tag, seed]


def _toy_fail(log: str, seed: int = 7, runner=None):
    with open(log, "a") as fh:
        fh.write(f"fail/{seed}\n")
    raise RuntimeError("toy experiment exploded")


def _release_gated(index: int, release: str, seed: int) -> int:
    # Shard 1 blocks until the test creates the release file, giving the
    # cancel a deterministic window; shards 0 and 2 are instant.
    if index == 1:
        deadline = time.monotonic() + 20.0
        while not Path(release).exists():
            if time.monotonic() > deadline:
                raise TimeoutError("release file never appeared")
            time.sleep(0.02)
    return index * 10 + (seed % 10)


def _toy_sharded(release: str, seed: int = 7, runner=None):
    from repro.parallel.runner import Shard

    shards = [
        Shard(key=f"gated/{i}", fn=_release_gated,
              kwargs={"index": i, "release": release}, seed=seed)
        for i in range(3)
    ]
    return runner.run(shards)


@pytest.fixture
def toy_experiments(tmp_path):
    log = tmp_path / "executions.log"
    register(ExperimentSpec(
        name="toy", run=_toy_run, render=lambda rows: f"rows={rows}",
        status=lambda rows: 0, description="test toy",
    ))
    register(ExperimentSpec(
        name="toy-fail", run=_toy_fail, render=str,
        status=lambda rows: 0, description="always raises",
    ))
    register(ExperimentSpec(
        name="toy-sharded", run=_toy_sharded, render=str,
        status=lambda rows: 0, description="3 shards, one gated",
    ))
    yield log
    unregister("toy")
    unregister("toy-fail")
    unregister("toy-sharded")


@pytest.fixture
def service(tmp_path):
    socket_path = tmp_path / "service.sock"
    handle = start_in_thread(socket_path, jobs=1)
    yield ServiceClient(socket_path)
    handle.stop()


def _submissions(log: Path) -> list[str]:
    return log.read_text().splitlines() if log.exists() else []


class TestServiceDedup:
    def test_duplicate_submissions_coalesce_to_one_execution(
            self, service, toy_experiments):
        log = toy_experiments
        spec = {"log": str(log), "tag": "dup"}
        # First submission detaches right after `accepted`, so the job is
        # still in flight (queued or running) when the duplicate arrives.
        first = list(service.submit("toy", kwargs=spec, watch=False))
        assert [e["event"] for e in first] == ["accepted"]
        assert first[0]["deduped"] is False

        accepted, final = service.submit_and_wait("toy", kwargs=spec)
        assert accepted["deduped"] is True
        assert accepted["job_id"] == first[0]["job_id"]
        assert final["event"] == "result"
        assert _submissions(log) == ["dup/7"]

        # Completed jobs memoise too: a third submission replays the
        # stored terminal event without executing anything.
        accepted3, final3 = service.submit_and_wait("toy", kwargs=spec)
        assert accepted3["deduped"] is True
        assert final3["output"] == final["output"]
        assert _submissions(log) == ["dup/7"]

    def test_distinct_specs_each_execute(self, service, toy_experiments):
        log = toy_experiments
        service.submit_and_wait("toy", kwargs={"log": str(log), "tag": "a"})
        service.submit_and_wait("toy", kwargs={"log": str(log), "tag": "b"})
        service.submit_and_wait("toy", kwargs={"log": str(log), "tag": "a"},
                                seed=8)
        assert _submissions(log) == ["a/7", "b/7", "a/8"]

    def test_failed_jobs_do_not_memoise(self, service, toy_experiments):
        log = toy_experiments
        accepted, final = service.submit_and_wait(
            "toy-fail", kwargs={"log": str(log)})
        assert final["event"] == "error"
        assert "toy experiment exploded" in final["message"]
        retry, final2 = service.submit_and_wait(
            "toy-fail", kwargs={"log": str(log)})
        assert retry["deduped"] is False
        assert retry["job_id"] != accepted["job_id"]
        assert _submissions(log) == ["fail/7", "fail/7"]

    def test_unknown_experiment_is_rejected_with_the_catalogue(self, service):
        [error] = list(service.submit("nope", watch=False))
        assert error["event"] == "error"
        assert "table1" in error["message"]

    @pytest.mark.parametrize("kwargs", [{"seed": 3}, {"bogus": 1}],
                             ids=["seed-twice", "unknown-kwarg"])
    def test_kwargs_the_driver_cannot_take_queue_nothing(self, service, kwargs):
        [error] = list(service.submit("table3", kwargs=kwargs, watch=False))
        assert error["event"] == "error"
        assert "cannot take kwargs" in error["message"]
        assert service.status()["jobs"] == []

    def test_malformed_request_yields_protocol_error(self, service):
        [error] = list(service.request({"op": "frobnicate"}))
        assert error["event"] == "error"
        assert "unknown op" in error["message"]


class TestServiceCancellation:
    def test_cancel_mid_campaign_leaves_cache_consistent(
            self, service, toy_experiments, tmp_path):
        release = tmp_path / "release"
        spec = {"release": str(release)}
        events = service.submit("toy-sharded", kwargs=spec)
        accepted = next(events)
        job_id = accepted["job_id"]

        final = None
        for event in events:
            kind = event.get("event")
            if kind == "progress" and event["done"] >= 1:
                # Shard 0 booked; shard 1 is (or will be) blocked on the
                # release file.  Cancel, then unblock.
                ack = ServiceClient(service._address).cancel(job_id)
                assert ack["event"] == "cancel-ack"
                release.touch()
            if kind in ("result", "cancelled", "error"):
                final = event
                break
        assert final is not None and final["event"] == "cancelled"
        # The runner stops between shards: never all three, and everything
        # that completed is already cached.
        assert 1 <= final["done"] < final["total"] == 3
        cancelled_done = final["done"]

        # A resubmission is a fresh job (cancelled jobs never memoise) that
        # resumes from the cache the cancelled run left behind.
        retry, final2 = service.submit_and_wait("toy-sharded", kwargs=spec)
        assert retry["deduped"] is False
        assert final2["event"] == "result"
        assert final2["shards"] == 3
        assert final2["cached_shards"] == cancelled_done

    def test_cancel_queued_job_is_instant(self, service, toy_experiments,
                                          tmp_path):
        release = tmp_path / "release"
        blocker = list(service.submit(
            "toy-sharded", kwargs={"release": str(release)}, watch=False))[0]
        queued = list(service.submit(
            "toy", kwargs={"log": str(toy_experiments), "tag": "queued"},
            watch=False))[0]
        ack = service.cancel(queued["job_id"])
        assert ack["state"] == "cancelled"
        [final] = [e for e in service.watch(queued["job_id"])]
        assert final["event"] == "cancelled" and final["done"] == 0
        # Unblock and drain the first job so teardown doesn't wait on it.
        service.cancel(blocker["job_id"])
        release.touch()
        for event in service.watch(blocker["job_id"]):
            if event["event"] in ("result", "cancelled", "error"):
                break

    def test_cancel_unknown_job_reports_error(self, service):
        error = service.cancel("job-999")
        assert error["event"] == "error"
        assert "unknown job" in error["message"]


class TestServiceShutdownOp:
    def test_shutdown_request_stops_the_service(self, tmp_path):
        handle = start_in_thread(tmp_path / "svc.sock", jobs=1)
        try:
            assert ServiceClient(handle.address).shutdown() == {"event": "shutdown"}
            handle.thread.join(timeout=10.0)
            assert not handle.thread.is_alive()
        finally:
            if handle.thread.is_alive():
                handle.stop()


#: Every registered experiment at default flags, plus Table III on a lossy
#: LAN: ``(experiment, served kwargs, the equivalent one-shot CLI flags)``.
SERVED_CASES = [(name, {}, []) for name in experiment_names()] + [
    ("table3", {"faults": "lossy"}, ["--faults", "lossy"]),
]


class TestServedEquivalence:
    @pytest.mark.parametrize(
        "experiment,kwargs,flags", SERVED_CASES,
        ids=[name + "".join(f"-{v}" for v in kw.values())
             for name, kw, _ in SERVED_CASES],
    )
    def test_served_output_and_status_match_one_shot_cli(
            self, service, capsys, experiment, kwargs, flags):
        _, served = service.submit_and_wait(experiment, kwargs=kwargs, seed=7)
        assert served["event"] == "result"

        from repro.cli import main

        code = main([*flags, "--no-manifest", experiment])
        assert capsys.readouterr().out == served["output"] + "\n"
        assert code == served["status"]

    def test_served_table1_matches_one_shot_cli_cold_and_warm(
            self, service, capsys):
        kwargs = {"trials": 1, "labels": ["C1", "C2"]}
        # Served run is the cold one: it fills the shared cache.
        _, cold = service.submit_and_wait("table1", kwargs=kwargs, seed=7)
        assert cold["event"] == "result"
        assert cold["cached_shards"] == 0

        # The one-shot CLI replays warm from the same cache and must print
        # byte-for-byte what the service streamed.
        from repro.cli import main

        code = main(["--trials", "1", "--labels", "C1,C2", "--no-manifest",
                     "table1"])
        printed = capsys.readouterr().out
        assert printed == cold["output"] + "\n"
        assert code == cold["status"]

        # And a fresh spec served warm matches its own one-shot run too.
        _, warm = service.submit_and_wait("table1", kwargs=kwargs, seed=7)
        assert warm["output"] == cold["output"]

    def test_served_result_writes_one_manifest_per_job(self, service):
        _, final = service.submit_and_wait(
            "table1", kwargs={"trials": 1, "labels": ["C1"]}, seed=7)
        manifest = Path(final["manifest"])
        assert manifest.is_file()
        assert manifest.parent.name == "service"
        key = JobSpec("table1", {"trials": 1, "labels": ["C1"]}, seed=7).key()
        assert manifest.stem == key

    def test_served_multi_campaign_job_reports_its_first_manifest(
            self, service):
        from repro.obs.manifest import RunManifest

        _, final = service.submit_and_wait("countermeasures", seed=7)
        manifest = Path(final["manifest"])
        assert manifest.parent.name == "service"
        assert manifest.stem == JobSpec("countermeasures", {}, seed=7).key()
        loaded = RunManifest.load(manifest)
        assert loaded.campaign == "cm-ack-timeout"
        # Every field of the event describes that same first campaign.
        assert final["shards"] == loaded.header["shards"]
        assert final["cached_shards"] == loaded.header["cached_shards"]
        assert final["metrics"] == [dict(r) for r in loaded.metrics]

    def test_result_carries_the_merged_metrics_snapshot(self, service):
        _, final = service.submit_and_wait(
            "table1", kwargs={"trials": 1, "labels": ["C1"]}, seed=7)
        components = {record["component"] for record in final["metrics"]}
        assert components  # non-empty deterministic snapshot
        assert "parallel" not in components  # wall-clock noise stays out


class TestServiceStatus:
    def test_status_counts_and_priority_order(self, service, toy_experiments,
                                              tmp_path):
        log = toy_experiments
        release = tmp_path / "release"
        # Occupy the single executor slot, then queue two jobs with
        # inverted priorities: the later, higher-priority one must run
        # first once the blocker is released.
        blocker = list(service.submit(
            "toy-sharded", kwargs={"release": str(release)},
            watch=False))[0]
        low = service.submit("toy", kwargs={"log": str(log), "tag": "low"},
                             priority=0, watch=False)
        high = service.submit("toy", kwargs={"log": str(log), "tag": "high"},
                              priority=5, watch=False)
        low_id = list(low)[0]["job_id"]
        high_id = list(high)[0]["job_id"]

        status = service.status()
        by_id = {row["job_id"]: row for row in status["jobs"]}
        assert by_id[low_id]["state"] == by_id[high_id]["state"] == "queued"
        assert status["service"]["queue_depth"] == 2
        assert status["service"]["pool_rebuilds"] == 0
        assert "table1" in status["experiments"]

        release.touch()
        for job_id in (blocker["job_id"], high_id, low_id):
            for event in service.watch(job_id):
                if event["event"] in ("result", "cancelled", "error"):
                    break
        assert _submissions(log) == ["high/7", "low/7"]

        status = service.status()
        assert status["service"]["completed"] == 3
        assert status["service"]["queue_depth"] == 0
        one = service.status(job_id=high_id)
        assert [row["job_id"] for row in one["jobs"]] == [high_id]


def _child_pids(pid: int) -> list[int]:
    """Live children of ``pid``, read from ``/proc/*/stat``."""
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(stat.parent.name))
    return children


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestServeSignals:
    def test_sigterm_stops_the_service_and_its_workers(self, tmp_path):
        """``phantom-delay serve`` shuts its pool down on SIGTERM instead
        of dying and leaving the forked workers to PID 1."""
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "--jobs", "2", "serve",
             "--socket", str(tmp_path / "svc.sock")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
        )
        workers: list[int] = []
        try:
            ready, _, _ = select.select([proc.stdout], [], [], 30.0)
            assert ready and b"listening" in proc.stdout.readline()
            workers = _child_pids(proc.pid)
            assert len(workers) >= 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10.0) == 0
            deadline = time.monotonic() + 10.0
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
