"""Timeout-behaviour profiling: the measurement procedure of Section IV-C.

The attacker runs these steps against a device *they own* (same model as
the victim's) to learn its timeout parameters:

1. observe idle traffic — long-live vs on-demand, keep-alive size/period;
2. trigger a normal message — does the next keep-alive shift?  (fixed vs
   on-idle pattern);
3. delay a keep-alive until the session dies — the keep-alive timeout;
4. trigger and delay normal messages right after a keep-alive exchange —
   if the session dies earlier than the keep-alive-anchored prediction,
   that is the message's own timeout; otherwise the message has none (∞).

Everything here observes only wire-visible facts: packet sizes and timing
from the capture, connection FIN/RST/SYN events from the hijacker.  The
profiler *drives the simulation clock itself* (it owns the experiment), so
harness code reads linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from ..appproto.keepalive import FIXED, ON_IDLE
from ..simnet.inet import DnsRegistry
from ..simnet.packet import IpPacket
from ..simnet.scheduler import run_until
from ..simnet.trace import PacketCapture
from ..tcp.segment import TcpSegment
from .fingerprint import extract_observation
from .hijacker import EVENT_FIN, EVENT_RST, FlowEvent, Hold, TcpHijacker
from .predictor import TimeoutBehavior

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

INF = math.inf

#: Recovery gap between measurement trials (paper: two minutes).
TRIAL_RECOVERY = 120.0
#: Tolerance when deciding whether a measured timeout is "the keep-alive
#: anchored one" (step 4's ∞ detection).
ANCHOR_TOLERANCE = 4.0
#: Abort waiting for a timeout after this much simulated time.
MAX_TIMEOUT_WAIT = 900.0


@dataclass
class TrialResult:
    """One delay-until-timeout trial."""

    started_at: float
    timed_out_at: float | None

    @property
    def measured(self) -> float | None:
        if self.timed_out_at is None:
            return None
        return self.timed_out_at - self.started_at


@dataclass
class ProfileReport:
    """Everything the profiling campaign learned about one device model."""

    device_ip: str
    server_ip: str | None = None
    server_domain: str | None = None
    long_live: bool = True
    ka_period: float | None = None
    ka_strategy: str | None = None
    ka_size: int | None = None
    event_size: int | None = None
    command_size: int | None = None
    ka_trials: list[TrialResult] = field(default_factory=list)
    event_trials: list[TrialResult] = field(default_factory=list)
    command_trials: list[TrialResult] = field(default_factory=list)
    ka_timeout: float | None = None
    event_timeout: float | None = None  # None = unbounded (∞)
    command_timeout: float | None = None
    event_max_delay: float = 0.0  # best measured pre-timeout delay
    command_max_delay: float = 0.0
    notes: list[str] = field(default_factory=list)

    def behavior(self) -> TimeoutBehavior:
        return TimeoutBehavior(
            long_live=self.long_live,
            ka_period=self.ka_period,
            ka_strategy=self.ka_strategy,
            ka_timeout=self.ka_timeout,
            event_timeout=self.event_timeout,
            command_timeout=self.command_timeout,
            keepalive_size=self.ka_size,
            event_size=self.event_size,
            command_size=self.command_size,
        )


class TimeoutProfiler:
    """Runs the Section IV-C measurement campaign against one device."""

    def __init__(
        self,
        sim: "Simulator",
        capture: PacketCapture,
        hijacker: TcpHijacker,
        device_ip: str,
        trigger_event: Callable[[], None],
        trigger_command: Callable[[], None] | None = None,
        dns: DnsRegistry | None = None,
        recovery: float = TRIAL_RECOVERY,
    ) -> None:
        self.sim = sim
        self.capture = capture
        self.hijacker = hijacker
        self.device_ip = device_ip
        self.trigger_event = trigger_event
        self.trigger_command = trigger_command
        self.dns = dns
        self.recovery = recovery
        #: How long one trial waits for a timeout before concluding '∞'.
        #: Table II campaigns lower this: HAP events never time out, so
        #: every trial would otherwise run the full default.
        self.max_wait = MAX_TIMEOUT_WAIT
        self._idle_downlink_sizes: set[int] = set()
        self.report = ProfileReport(device_ip=device_ip)

    # ------------------------------------------------------------ main entry

    def profile(self, trials: int = 3, idle_window: float = 420.0) -> ProfileReport:
        """Run the full campaign.  ``trials`` per message type.

        The paper uses 20 trials per device; tests and benches default
        lower because the simulated stack is deterministic (the bench for
        Table I exposes the trial count as a parameter).
        """
        self.observe_idle(idle_window)
        self.discover_event_size()
        if self.report.long_live:
            self.detect_ka_strategy()
            self.measure_ka_timeout(trials)
        self.measure_event_timeout(trials)
        if self.trigger_command is not None:
            self.discover_command_size()
            self.measure_command_timeout(trials)
        return self.report

    # ---------------------------------------------------------------- step 1

    def observe_idle(self, window: float) -> None:
        self.capture.clear()
        self.sim.run(window)
        # Downlink sizes seen while idle (keep-alive replies) cannot be the
        # command; remember them so command discovery can exclude them.
        self._idle_downlink_sizes = set(self._downlink_sizes_since(0.0))
        observations = extract_observation(self.capture, self.device_ip, self.dns)
        keepalive_flows = [o for o in observations if o.long_live]
        if keepalive_flows:
            obs = keepalive_flows[0]
            self.report.long_live = True
            self.report.ka_period = obs.ka_period
            self.report.ka_size = obs.ka_wire_size
            self.report.server_ip = obs.server_ip
            self.report.server_domain = obs.server_domain
            self.report.notes.append(
                f"idle: keep-alive {obs.ka_wire_size}B every {obs.ka_period:.1f}s"
            )
        else:
            self.report.long_live = False
            self.report.notes.append("idle: no standing session (on-demand device)")

    # ---------------------------------------------------------------- step 2

    def discover_event_size(self) -> None:
        sizes: dict[int, int] = {}
        for _ in range(2):
            mark = self.sim.now
            self.trigger_event()
            self.sim.run(5.0)
            for size in self._uplink_sizes_since(mark):
                if size != self.report.ka_size:
                    sizes[size] = sizes.get(size, 0) + 1
            self.sim.run(5.0)
        if not sizes:
            raise RuntimeError("no event traffic observed after triggering")
        # The event is the largest repeated non-keep-alive size (handshake
        # records on on-demand sessions are smaller).
        repeated = [s for s, n in sizes.items() if n >= 2]
        self.report.event_size = max(repeated or sizes)
        if self.report.server_ip is None:
            observations = extract_observation(self.capture, self.device_ip, self.dns)
            if observations:
                self.report.server_ip = observations[-1].server_ip
                self.report.server_domain = observations[-1].server_domain

    def discover_command_size(self) -> None:
        assert self.trigger_command is not None
        idle_sizes = getattr(self, "_idle_downlink_sizes", set())
        sizes: dict[int, int] = {}
        for _ in range(2):
            mark = self.sim.now
            self.trigger_command()
            self.sim.run(5.0)
            for size in self._downlink_sizes_since(mark):
                if size not in idle_sizes:
                    sizes[size] = sizes.get(size, 0) + 1
            self.sim.run(5.0)
        if not sizes:
            raise RuntimeError("no command traffic observed after triggering")
        self.report.command_size = max(s for s, n in sizes.items() if n == max(sizes.values()))

    # ---------------------------------------------------------------- step 3

    def detect_ka_strategy(self) -> None:
        """Does a normal message postpone the next keep-alive?"""
        period = self.report.ka_period
        assert period is not None and self.report.ka_size is not None
        ka_time = self._wait_for_keepalive()
        # Fire an event mid-period and see when the next keep-alive lands.
        self.sim.run(period * 0.5)
        event_time = self.sim.now
        self.trigger_event()
        next_ka = self._wait_for_keepalive(timeout=period * 2.5)
        drift_from_schedule = abs((next_ka - ka_time) - period)
        drift_from_event = abs((next_ka - event_time) - period)
        if drift_from_event < drift_from_schedule:
            self.report.ka_strategy = ON_IDLE
        else:
            self.report.ka_strategy = FIXED
        self.report.notes.append(
            f"keep-alive pattern: {self.report.ka_strategy} "
            f"(schedule drift {drift_from_schedule:.2f}s vs event drift {drift_from_event:.2f}s)"
        )
        self.sim.run(period)  # settle

    # ---------------------------------------------------------------- step 4

    def measure_ka_timeout(self, trials: int) -> None:
        assert self.report.ka_size is not None
        for _ in range(trials):
            self._wait_for_keepalive()
            hold = self.hijacker.hold_events(
                self.device_ip, self.report.server_ip,
                trigger_size=self.report.ka_size, label="profile-ka",
            )
            result = self._run_delay_trial(hold, trigger=None)
            self.report.ka_trials.append(result)
            self._recover()
        measured = [t.measured for t in self.report.ka_trials if t.measured is not None]
        if measured:
            self.report.ka_timeout = sorted(measured)[len(measured) // 2]
            self.report.notes.append(f"keep-alive timeout ~= {self.report.ka_timeout:.1f}s")

    def measure_event_timeout(self, trials: int) -> None:
        assert self.report.event_size is not None
        for _ in range(trials):
            if self.report.long_live:
                self._wait_for_keepalive()
            hold = self.hijacker.hold_events(
                self.device_ip, self.report.server_ip,
                trigger_size=self.report.event_size, label="profile-event",
            )
            result = self._run_delay_trial(hold, trigger=self.trigger_event)
            self.report.event_trials.append(result)
            self._recover()
        self._conclude_normal_timeout("event")

    def measure_command_timeout(self, trials: int) -> None:
        assert self.report.command_size is not None and self.trigger_command is not None
        for _ in range(trials):
            if self.report.long_live:
                self._wait_for_keepalive()
            hold = self.hijacker.hold_commands(
                self.device_ip, self.report.server_ip,
                trigger_size=self.report.command_size, label="profile-command",
            )
            result = self._run_delay_trial(hold, trigger=self.trigger_command)
            self.report.command_trials.append(result)
            self._recover()
        self._conclude_normal_timeout("command")

    def _conclude_normal_timeout(self, kind: str) -> None:
        trials = self.report.event_trials if kind == "event" else self.report.command_trials
        measured = [t.measured for t in trials if t.measured is not None]
        if not measured:
            # Never timed out inside the observation window.
            if kind == "event":
                self.report.event_timeout = None
                self.report.event_max_delay = INF
            else:
                self.report.command_timeout = None
                self.report.command_max_delay = INF
            self.report.notes.append(f"{kind}: no timeout observed at all")
            return
        value = sorted(measured)[len(measured) // 2]
        anchored = self._ka_anchored_timeout()
        is_anchor = anchored is not None and any(
            abs(m - anchored) <= ANCHOR_TOLERANCE for m in measured
        )
        if kind == "event":
            self.report.event_max_delay = max(measured)
            self.report.event_timeout = None if is_anchor else value
        else:
            self.report.command_max_delay = max(measured)
            self.report.command_timeout = None if is_anchor else value
        mark = "∞ (keep-alive anchored)" if is_anchor else f"{value:.1f}s"
        self.report.notes.append(f"{kind} timeout: {mark}; max delay {max(measured):.1f}s")

    def _ka_anchored_timeout(self) -> float | None:
        """Timeout expected from keep-alives alone, for a hold begun at a
        keep-alive exchange: one period until the next (held) keep-alive,
        plus the keep-alive timeout."""
        if self.report.ka_period is None or self.report.ka_timeout is None:
            return None
        return self.report.ka_period + self.report.ka_timeout

    # ----------------------------------------------------------- trial logic

    def _run_delay_trial(self, hold: Hold, trigger: Callable[[], None] | None) -> TrialResult:
        if trigger is not None:
            trigger()
        if not run_until(self.sim, lambda: hold.triggered_at is not None, self.max_wait):
            self.hijacker.cancel(hold)
            return TrialResult(started_at=self.sim.now, timed_out_at=None)
        started = hold.triggered_at
        assert started is not None
        # Flow events are appended in time order: keep a cursor over them
        # (as _wait_for_keepalive does over the capture) instead of
        # rescanning the whole log at every simulated instant.  It starts
        # at the first event at or after the trigger.
        events = self.hijacker.flow_events
        cursor = len(events)
        while cursor and events[cursor - 1].ts >= started:
            cursor -= 1
        close: FlowEvent | None = None

        def closed() -> bool:
            nonlocal cursor, close
            while close is None and cursor < len(events):
                event = events[cursor]
                cursor += 1
                if event.kind in (EVENT_FIN, EVENT_RST) and event.flow.involves_ip(
                    self.device_ip
                ):
                    close = event
            return close is not None

        if run_until(self.sim, closed, self.max_wait):
            assert close is not None
            result = TrialResult(started_at=started, timed_out_at=close.ts)
        else:
            result = TrialResult(started_at=started, timed_out_at=None)
        if hold.released_at is None:
            self.hijacker.release(hold, reason="trial-cleanup")
        return result

    def _recover(self) -> None:
        self.sim.run(self.recovery)

    # --------------------------------------------------------------- helpers

    def _uplink_sizes_since(self, mark: float) -> list[int]:
        sizes = []
        for captured, ip, segment in self.capture.tcp_frames():
            if captured.ts >= mark and ip.src_ip == self.device_ip and segment.payload_size:
                sizes.append(segment.payload_size)
        return sizes

    def _downlink_sizes_since(self, mark: float) -> list[int]:
        sizes = []
        for captured, ip, segment in self.capture.tcp_frames():
            if captured.ts >= mark and ip.dst_ip == self.device_ip and segment.payload_size:
                sizes.append(segment.payload_size)
        return sizes

    def _wait_for_keepalive(self, timeout: float | None = None) -> float:
        """Run until the next keep-alive-sized uplink packet passes.

        Scans the capture incrementally (a cursor, not repeated rescans) so
        long campaigns stay linear in traffic volume.
        """
        ka_size = self.report.ka_size
        assert ka_size is not None
        window = timeout if timeout is not None else (self.report.ka_period or 60.0) * 2.5
        device_ip = self.device_ip
        cursor = len(self.capture.frames)
        found: list[float] = []

        def seen() -> bool:
            nonlocal cursor
            frames = self.capture.frames
            while cursor < len(frames):
                captured = frames[cursor]
                cursor += 1
                packet = captured.frame.payload
                if type(packet) is IpPacket and packet.src_ip == device_ip:
                    segment = packet.payload
                    if type(segment) is TcpSegment and len(segment.payload) == ka_size:
                        found.append(captured.ts)
                        return True
            return False

        if not run_until(self.sim, seen, window):
            raise RuntimeError("no keep-alive observed while waiting")
        self.sim.run(0.2)  # let the keep-alive's reply complete
        return found[0]
