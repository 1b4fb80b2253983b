"""Extension experiment: device-recognition accuracy of the sniffing step.

Clarification II of the paper argues an attacker need only profile popular
models to recognise a large share of deployments.  This experiment measures
the fingerprint database's top-1 accuracy: build homes containing mixed
device sets, let the attacker sniff passively (with a little natural
activity so event-length fingerprints appear), and check whether the best
match identifies the right model.

Hub *children* are scored against the flow they ride: recognising the Ring
contact sensor on the base station's session requires its event length to
have been observed — which is also exactly the attacker's operational
requirement before arming a size-triggered hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.reporting import TextTable
from ..core.attacker import PhantomDelayAttacker
from ..core.fingerprint import extract_observation
from ..testbed import SmartHomeTestbed

#: Mixed homes used for the accuracy measurement: (wifi devices, hub children).
DEFAULT_HOMES: tuple[tuple[str, ...], ...] = (
    ("P2", "HS1", "C1"),
    ("L3", "M7", "T1"),
    ("HS3", "V1", "SM1"),
    ("CM1", "P4", "C5"),
    ("C2", "L2", "LK1"),
)


@dataclass
class RecognitionRow:
    device_id: str
    expected_label: str
    recognised_label: str | None
    correct: bool
    score: float | None


@dataclass
class RecognitionReport:
    rows: list[RecognitionRow] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.correct for r in self.rows) / len(self.rows)


def run_recognition(
    homes: tuple[tuple[str, ...], ...] = DEFAULT_HOMES,
    sniff_window: float = 400.0,  # >= 3 keep-alives of the slowest (Hue: 120 s)
    seed: int = 211,
) -> RecognitionReport:
    report = RecognitionReport()
    for i, labels in enumerate(homes):
        report.rows.extend(_survey_home(labels, sniff_window, seed=seed + i))
    return report


def _survey_home(labels: tuple[str, ...], window: float, seed: int) -> list[RecognitionRow]:
    tb = SmartHomeTestbed(seed=seed)
    devices = [tb.add_device(label) for label in labels]
    tb.settle(8.0)
    attacker = PhantomDelayAttacker.deploy(tb)

    # Natural activity so event-length fingerprints show up in the window.
    for offset, device in enumerate(devices):
        if device.behavior.sensor_values:
            tb.sim.schedule(
                20.0 + 11.0 * offset, device.stimulate, device.behavior.sensor_values[0]
            )

    rows: list[RecognitionRow] = []
    attacker.capture.clear()
    tb.run(window)
    for device in devices:
        matches: list = []
        for observation in extract_observation(attacker.capture, device.uplink_ip, tb.internet.dns):
            matches.extend(attacker.database.match_flow(observation))
        matches.sort(key=lambda m: -m.score)
        # For a hub child, the right answer is the child (its event length
        # was seen); for the hub's own row the hub label.
        expected = device.profile.label
        candidates = [m for m in matches if m.signature.table == device.profile.table]
        best = candidates[0] if candidates else None
        recognised = None
        score = None
        if best is not None:
            # Among equal-scoring matches prefer one that names the device.
            top = [m for m in candidates if m.score == best.score]
            hit = next((m for m in top if m.signature.label == expected), None)
            chosen = hit or best
            recognised, score = chosen.signature.label, chosen.score
        rows.append(
            RecognitionRow(
                device_id=device.device_id,
                expected_label=expected,
                recognised_label=recognised,
                correct=recognised == expected,
                score=score,
            )
        )
    return rows


def render_recognition(report: RecognitionReport) -> str:
    table = TextTable(
        ["Device", "Expected", "Recognised", "Score", "Correct"],
        title=(
            f"Device recognition from encrypted traffic — top-1 accuracy "
            f"{report.accuracy * 100:.0f}%"
        ),
    )
    for row in report.rows:
        table.add_row(
            row.device_id,
            row.expected_label,
            row.recognised_label or "-",
            f"{row.score:.1f}" if row.score is not None else "-",
            "yes" if row.correct else "NO",
        )
    return table.render()
