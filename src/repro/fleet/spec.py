"""Parameterised home specifications: one sampled smart home, as data.

A :class:`HomeSpec` is everything needed to reconstruct one simulated
smart home byte-identically anywhere — in this process, in a forked
worker, or from a cache entry months later: the derived seed, the device
mix, the automation rule set (as DSL text), the fault profile, the
attacker's presence and hold schedule, and the stimulus timeline.  Specs
are frozen, picklable, JSON-round-trippable, and schema-versioned: a
loader refuses specs written by a *newer* schema rather than silently
misreading them, mirroring the run-manifest policy.

The spec is deliberately textual where it can be (rule DSL lines,
catalogue labels, fault profile names) so a spec dump is readable and a
golden-pinned digest of one is reviewable in a test diff.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..cache.keys import canonical

#: Bump when the spec layout changes incompatibly; loaders reject newer
#: specs (the sampler always emits the current schema).
SPEC_SCHEMA = 1


@dataclass(frozen=True)
class Stimulus:
    """One physical stimulation of one device, ``at`` seconds after settle."""

    at: float
    device_id: str
    value: str

    def to_tuple(self) -> tuple[float, str, str]:
        return (self.at, self.device_id, self.value)


@dataclass(frozen=True)
class HomeSpec:
    """A complete, reconstructible description of one sampled home."""

    home_index: int
    seed: int
    #: Catalogue labels (cloud table); hub children pull their hubs in.
    devices: tuple[str, ...]
    #: Automation rules as DSL lines (``WHEN ... THEN ...``).
    rules: tuple[str, ...]
    #: Named fault profile, or None for an ideal LAN.
    fault_profile: str | None = None
    #: Whether a phantom-delay attacker is present on this LAN.
    attacker: bool = False
    #: Catalogue label of the device whose events the attacker holds.
    attack_target: str | None = None
    #: Seconds after settle at which the attacker arms its hold.
    hold_at: float = 0.0
    #: Hold duration in seconds; None = the maximum safe delay.
    hold_duration: float | None = None
    #: Simulated seconds the home runs after settling.
    duration: float = 120.0
    stimuli: tuple[Stimulus, ...] = ()
    schema: int = SPEC_SCHEMA
    #: Free-form provenance, not identity.
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    # ------------------------------------------------------------- identity

    def digest(self) -> str:
        """Content address of this spec (identity excludes ``meta``)."""
        payload = self.to_dict()
        payload.pop("meta", None)
        return hashlib.blake2b(canonical(payload), digest_size=16).hexdigest()

    # ---------------------------------------------------------- (de)serialise

    def to_dict(self) -> dict[str, Any]:
        """Every field in declaration order, tuples as lists (the JSON form)."""
        return {
            "home_index": self.home_index,
            "seed": self.seed,
            "devices": list(self.devices),
            "rules": list(self.rules),
            "fault_profile": self.fault_profile,
            "attacker": self.attacker,
            "attack_target": self.attack_target,
            "hold_at": self.hold_at,
            "hold_duration": self.hold_duration,
            "duration": self.duration,
            "stimuli": [list(s.to_tuple()) for s in self.stimuli],
            "schema": self.schema,
            "meta": copy.deepcopy(self.meta),
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "HomeSpec":
        schema = record.get("schema", 0)
        if schema > SPEC_SCHEMA:
            raise ValueError(
                f"home spec schema {schema} is newer than supported "
                f"({SPEC_SCHEMA}); upgrade the tooling"
            )
        return cls(
            home_index=record["home_index"],
            seed=record["seed"],
            devices=tuple(record["devices"]),
            rules=tuple(record["rules"]),
            fault_profile=record.get("fault_profile"),
            attacker=record.get("attacker", False),
            attack_target=record.get("attack_target"),
            hold_at=record.get("hold_at", 0.0),
            hold_duration=record.get("hold_duration"),
            duration=record.get("duration", 120.0),
            stimuli=tuple(
                Stimulus(at=s[0], device_id=s[1], value=s[2])
                for s in record.get("stimuli", ())
            ),
            schema=schema,
            meta=dict(record.get("meta", {})),
        )
