"""Small shared helpers for the experiment drivers."""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..simnet.scheduler import Simulator


def run_until(sim: "Simulator", predicate: Callable[[], bool], timeout: float) -> bool:
    """Advance the simulation until ``predicate`` holds or ``timeout`` passes.

    The predicate is re-evaluated per simulated *instant*, not per event:
    each pass batch-steps to the next event's timestamp (which fires every
    event scheduled at that instant in one fused scheduler loop) and only
    then re-checks.  Predicates are functions of simulation state that
    changes when events fire, so checking between two events of the same
    instant buys nothing — it was the dominant Python-level overhead of the
    profiling campaigns.
    """
    deadline = sim.now + timeout
    while not predicate():
        nxt = sim.peek()
        if nxt is None or nxt > deadline:
            sim.run_until(deadline)
            return predicate()
        sim.run_until(nxt)
    return True
