"""Automation-rule inference from encrypted traffic (Section VI-D2).

The paper's action-delay demonstration starts by *inferring* the
"front door closed → lock the door" rule: "from one day's events, we can
reasonably infer this automation rule by observing the behavior pattern
between the lock's locking commands and the events of door closing.  We can
proactively verify this hypothesis by adding small delays of five seconds
on events of front door closing, and check whether the 'door locking'
actions are also delayed by five seconds."

This module implements both steps against capture metadata only:

* **passive correlation** — repeated (uplink event, downlink command) pairs
  within a short window across the LAN's flows become rule hypotheses;
* **active verification** — e-Delay the hypothesised trigger by a small
  probe delay and check the command shifts by the same amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..analysis.reporting import TextTable
from ..simnet.trace import PacketCapture
from .attacker import PhantomDelayAttacker
from .predictor import TimeoutBehavior

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator

#: Payloads below this are control chatter (keep-alives, compact acks);
#: events and commands are bigger.
MIN_MESSAGE_BYTES = 150
#: An automation's command follows its trigger within this window
#: (event uplink + cloud processing + command downlink).
CORRELATION_WINDOW = 2.0
#: Hypotheses need at least this many co-occurrences.
MIN_SUPPORT = 2
#: Verification tolerance on the probe-delay shift.
SHIFT_TOLERANCE = 1.0


@dataclass
class WireMessage:
    ts: float
    device_ip: str
    size: int
    uplink: bool


@dataclass
class RuleHypothesis:
    """A suspected trigger(event) -> action(command) automation."""

    trigger_ip: str
    trigger_size: int
    command_ip: str
    command_size: int
    support: int
    mean_latency: float
    verified: bool | None = None  # None = not yet probed
    probe_shift: float | None = None


def extract_messages(
    capture: PacketCapture,
    lan_prefix: str = "192.168.1.",
    min_bytes: int = MIN_MESSAGE_BYTES,
    since: float = 0.0,
) -> list[WireMessage]:
    """Event/command-sized payloads from the capture, oriented by LAN side."""
    messages: list[WireMessage] = []
    seen: set[tuple[float, str, int, bool]] = set()
    for ts, src_ip, _src_port, dst_ip, _dst_port, size in capture.segments:
        if ts < since or size < min_bytes:
            continue
        if src_ip.startswith(lan_prefix):
            key = (ts, src_ip, size, True)
            message = WireMessage(ts, src_ip, size, True)
        elif dst_ip.startswith(lan_prefix):
            key = (ts, dst_ip, size, False)
            message = WireMessage(ts, dst_ip, size, False)
        else:
            continue
        # The hijacked path shows each packet twice (in and out); dedupe on
        # near-identical observations.
        rounded = (round(key[0], 1), key[1], key[2], key[3])
        if rounded in seen:
            continue
        seen.add(rounded)
        messages.append(message)
    return messages


class RuleInferencer:
    """Passive hypothesis mining plus the paper's active probe verification."""

    def __init__(
        self,
        attacker: PhantomDelayAttacker,
        lan_prefix: str = "192.168.1.",
        correlation_window: float = CORRELATION_WINDOW,
        min_support: int = MIN_SUPPORT,
    ) -> None:
        self.attacker = attacker
        self.sim: "Simulator" = attacker.sim
        self.lan_prefix = lan_prefix
        self.correlation_window = correlation_window
        self.min_support = min_support

    # ------------------------------------------------------------- passive

    def hypothesize(self, since: float = 0.0) -> list[RuleHypothesis]:
        """Mine (event, command) correlations from the capture so far."""
        messages = extract_messages(
            self.attacker.capture, lan_prefix=self.lan_prefix, since=since
        )
        events = [m for m in messages if m.uplink]
        commands = [m for m in messages if not m.uplink]
        pairs: dict[tuple[str, int, str, int], list[float]] = {}
        for command in commands:
            candidates = [
                e for e in events
                if 0.0 < command.ts - e.ts <= self.correlation_window
            ]
            if not candidates:
                continue
            event = max(candidates, key=lambda e: e.ts)  # nearest predecessor
            key = (event.device_ip, event.size, command.device_ip, command.size)
            pairs.setdefault(key, []).append(command.ts - event.ts)
        hypotheses = []
        for (t_ip, t_size, c_ip, c_size), latencies in pairs.items():
            if len(latencies) < self.min_support:
                continue
            hypotheses.append(
                RuleHypothesis(
                    trigger_ip=t_ip,
                    trigger_size=t_size,
                    command_ip=c_ip,
                    command_size=c_size,
                    support=len(latencies),
                    mean_latency=sum(latencies) / len(latencies),
                )
            )
        hypotheses.sort(key=lambda h: -h.support)
        return hypotheses

    # -------------------------------------------------------------- active

    def verify(
        self,
        hypothesis: RuleHypothesis,
        behavior: TimeoutBehavior,
        trigger_physical: Callable[[], None],
        probe_delay: float = 5.0,
        wait: float = 30.0,
    ) -> bool:
        """The paper's probe: delay the trigger; does the command shift too?

        ``trigger_physical`` makes the physical world produce the suspected
        trigger event (in a real deployment the attacker waits for a natural
        occurrence instead).  Requires the trigger flow to be interposed.
        """
        operation = self.attacker.e_delay(hypothesis.trigger_ip, behavior).arm(
            duration=probe_delay,
            trigger_size=hypothesis.trigger_size,
            label="rule-probe",
        )
        mark = self.sim.now
        trigger_physical()
        self.sim.run(wait)
        command_times = [
            m.ts
            for m in extract_messages(
                self.attacker.capture, lan_prefix=self.lan_prefix, since=mark
            )
            if not m.uplink
            and m.device_ip == hypothesis.command_ip
            and m.size == hypothesis.command_size
        ]
        if operation.triggered_at is None or not command_times:
            hypothesis.verified = False
            return False
        shift = (command_times[0] - operation.triggered_at) - hypothesis.mean_latency
        hypothesis.probe_shift = shift
        hypothesis.verified = abs(shift - probe_delay) <= SHIFT_TOLERANCE
        return hypothesis.verified


def render_hypotheses(hypotheses: list[RuleHypothesis]) -> str:
    table = TextTable(
        ["Trigger", "Command", "Support", "Latency", "Probe shift", "Verified"],
        title=f"Inferred automation rules ({len(hypotheses)} hypotheses)",
    )
    for h in hypotheses:
        table.add_row(
            f"{h.trigger_ip} [{h.trigger_size}B]",
            f"{h.command_ip} [{h.command_size}B]",
            h.support,
            f"{h.mean_latency:.2f}s",
            f"{h.probe_shift:.2f}s" if h.probe_shift is not None else "-",
            {None: "-", True: "yes", False: "NO"}[h.verified],
        )
    return table.render()
