"""Camera streaming, HomeKit command delays, seed robustness, CLI coverage."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main
from repro.core.attacker import PhantomDelayAttacker
from repro.core.predictor import TimeoutBehavior
from repro.core.attacks.base import compare_scenario
from repro.core.attacks.scenarios import Case8StormDoorUnlock
from repro.devices.base import CameraDevice
from repro.simnet.scheduler import run_until
from repro.testbed import SmartHomeTestbed


class TestCameraStreaming:
    def _streaming_home(self):
        tb = SmartHomeTestbed(seed=251)
        camera = tb.add_device("CM1")
        assert isinstance(camera, CameraDevice)
        tb.settle(8.0)
        camera.start_stream()
        tb.run(10.0)
        return tb, camera

    def test_stream_frames_flow(self):
        tb, camera = self._streaming_home()
        assert camera.stream_frames_sent >= 9
        assert tb.alarms.silent

    def test_homekit_camera_streams_to_the_homepod(self):
        tb = SmartHomeTestbed(seed=251)
        camera = tb.add_device("CM1", table=2)
        assert isinstance(camera, CameraDevice) and not camera.streaming
        tb.settle(8.0)
        camera.start_stream()
        tb.run(5.5)  # frames leave each second; the last one lands by now
        frames = [m for _t, _src, m in tb.local_server.events if m.name == "stream.frame"]
        assert len(frames) == camera.stream_frames_sent == 5
        assert tb.alarms.silent

    def test_stop_stream(self):
        tb, camera = self._streaming_home()
        camera.stop_stream()
        sent = camera.stream_frames_sent
        tb.run(10.0)
        assert camera.stream_frames_sent == sent

    def test_event_hold_does_not_stall_stream(self):
        """Holding the camera's 1200 B motion event leaves the 1400 B
        stream... also held — they share the flow!  The attacker must know
        this: the stream stalls visibly, so camera events are poor e-Delay
        targets while streaming.  The test documents the physics."""
        tb, camera = self._streaming_home()
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(camera.host.ip)
        tb.run(5.0)
        hold = attacker.hijacker.hold_events(camera.host.ip, trigger_size=1200)
        camera.stimulate("active")
        tb.run(5.0)
        assert hold.holding
        # Subsequent stream frames are held behind the event (in-order flow).
        assert hold.held_count > 3
        attacker.hijacker.release(hold)
        tb.run(2.0)
        assert tb.alarms.silent

    def test_idle_camera_event_hold_is_clean(self):
        tb = SmartHomeTestbed(seed=253)
        camera = tb.add_device("CM1")
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(camera.host.ip)
        tb.run(25.0)
        operation = attacker.e_delay(
            camera.host.ip, TimeoutBehavior.from_profile(camera.profile)
        ).arm(trigger_size=1200)
        camera.stimulate("active")
        run_until(tb.sim, lambda: operation.released_at is not None, 120.0)
        tb.run(5.0)
        assert operation.stealthy and tb.alarms.silent


class TestHomeKitCommandDelay:
    def test_local_command_delayed_within_hap_timeout(self):
        """Table II's other column: HomeKit commands do have a timeout
        (the 'No Response' UI), so c-Delay against local actuators is
        bounded — unlike the unbounded events."""
        tb = SmartHomeTestbed(seed=255)
        bulb = tb.add_device("L2", table=2)
        server = tb.ensure_local_server()
        tb.settle(8.0)
        attacker = PhantomDelayAttacker.deploy(tb)
        attacker.interpose(bulb.host.ip, peer_ip=server.ip)
        tb.run(5.0)
        behavior = TimeoutBehavior.from_profile(bulb.profile)
        assert behavior.command_delay_window() == (10.0, 10.0)
        operation = attacker.c_delay(bulb.host.ip, behavior).arm(
            trigger_size=bulb.profile.command_size
        )
        server.send_command("l2-hk", "on")
        run_until(tb.sim, lambda: operation.released_at is not None, 60.0)
        tb.run(3.0)
        assert operation.stealthy
        assert operation.achieved_delay == pytest.approx(8.0, abs=0.5)  # 10 - margin
        assert bulb.attribute_value == "on"
        assert tb.alarms.silent


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 17, 42, 99, 1234])
    def test_case8_reproduces_across_seeds(self, seed):
        baseline, attacked = compare_scenario(Case8StormDoorUnlock(), seed=seed)
        assert not baseline.metrics["unlocked"]
        assert attacked.metrics["unlocked"], seed
        assert attacked.alarms == {}, seed


#: blake2b-128 of the stdout of ``phantom-delay --no-cache --no-manifest plan``.
PLAN_BLAKE2B = "e1799f36a81451d7aa7f4458792f0bdb"

#: blake2b-128 of the file ``phantom-delay --labels PATH export-knowledge`` writes.
KNOWLEDGE_BLAKE2B = "b9d1ce4f819f281acb4802caa17d6e5a"


def _blake2b_128(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestCliCoverage:
    def test_plan_command(self, capsys):
        assert main(["--no-cache", "--no-manifest", "plan"]) == 0
        out = capsys.readouterr().out
        assert "Attack plan" in out
        assert _blake2b_128(out.encode()) == PLAN_BLAKE2B

    def test_integrity_command(self, capsys):
        assert main(["integrity"]) == 0
        out = capsys.readouterr().out
        assert "hold-release" in out

    def test_findings_command(self, capsys):
        assert main(["findings"]) == 0
        assert "Finding 1" in capsys.readouterr().out

    def test_export_knowledge(self, tmp_path, capsys):
        path = tmp_path / "kb.json"
        assert main(["--labels", str(path), "export-knowledge"]) == 0
        data = path.read_bytes()
        assert len(json.loads(data)["entries"]) == 50
        assert _blake2b_128(data) == KNOWLEDGE_BLAKE2B
