"""The attacker's shareable knowledge base (Section IV-C, step 1).

"Note that the profiling is a one-time effort and the collected knowledge
can be shared among attackers."  This module makes that concrete: profiled
timeout behaviours serialise to a JSON document keyed by device model, so a
campaign on a new victim network needs only recognition + lookup.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..devices.profiles import CATALOGUE
from .predictor import TimeoutBehavior

FORMAT_VERSION = 1


@dataclass
class KnowledgeEntry:
    """One profiled device model."""

    label: str
    model: str
    behavior: TimeoutBehavior
    source: str = "profiled"  # "profiled" | "catalogue" | "shared"
    trials: int = 0
    notes: list[str] = field(default_factory=list)


class KnowledgeBase:
    """Profiled timeout behaviours, saved as a shareable JSON document."""

    def __init__(self) -> None:
        self._entries: dict[str, KnowledgeEntry] = {}

    # ------------------------------------------------------------- building

    def add_behavior(self, label: str, model: str, behavior: TimeoutBehavior) -> KnowledgeEntry:
        """Record a catalogue model's behaviour under ``label``."""
        entry = KnowledgeEntry(label=label, model=model, behavior=behavior, source="catalogue")
        self._entries[label] = entry
        return entry

    @classmethod
    def from_catalogue(cls) -> "KnowledgeBase":
        """Ground-truth knowledge, as if every model had been profiled.

        HomeKit-paired variants of a model behave differently from their
        cloud-connected twins, so Table II entries are keyed ``LABEL:hk``.
        """
        kb = cls()
        for profile in CATALOGUE:
            key = profile.label if profile.table == 1 else f"{profile.label}:hk"
            kb.add_behavior(key, profile.model, TimeoutBehavior.from_profile(profile))
        return kb

    def __len__(self) -> int:
        return len(self._entries)

    # ---------------------------------------------------------- persistence

    def save(self, path: str | Path) -> None:
        doc = {
            "format": FORMAT_VERSION,
            "entries": [
                {
                    "label": e.label,
                    "model": e.model,
                    "source": e.source,
                    "trials": e.trials,
                    "notes": e.notes,
                    "behavior": asdict(e.behavior),
                }
                for e in self._entries.values()
            ],
        }
        Path(path).write_text(json.dumps(doc, indent=2))
