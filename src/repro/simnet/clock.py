"""Virtual time for the discrete-event simulator.

All protocol layers in :mod:`repro` read time exclusively through a
:class:`Clock` so that an entire smart home — devices, cloud servers, and the
attacker — can be driven deterministically by the event scheduler.  One second
of simulated time costs microseconds of wall time, which is what makes the
20-trial x 50-device profiling campaigns of the paper's evaluation tractable
in a test suite.
"""

from __future__ import annotations


class Clock:
    """A monotonically advancing virtual clock.

    The scheduler is the only component that should advance the clock; every
    other component treats it as read-only.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`ValueError` on any attempt to move backwards, which
        would indicate a scheduler bug.
        """
        if when < self._now:
            raise ValueError(
                f"time cannot move backwards: {when} < {self._now}"
            )
        self._now = when

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self._now:.6f})"
