"""Deterministic fault injection and cross-layer invariant checking.

The paper's core claim — TCP timeout detection is decoupled from TLS data
protection, so held packets survive arbitrarily long without tripping
either layer — is only convincing if the simulated stack stays correct
when the network itself misbehaves.  This package supplies the two halves
of that argument:

* :mod:`repro.faults.injector` — a seeded, schedule-deterministic
  impairment layer on the LAN (loss, burst loss, duplication, reordering,
  corruption, jitter, clock drift), replayable from ``(seed, profile)``;
* :mod:`repro.faults.invariants` — liveness/safety checkers hooked into
  every layer (TCP exactly-once in-order delivery, TLS integrity, ordered
  attacker hold release, automation rule provenance), in the spirit of
  TAPInspector's safety/liveness verification of trigger-action systems.

A run with any fault profile active and the invariant suite silent is the
simulator's proof of honesty: everything the impaired network did was
recovered by TCP, verified by TLS, and never invented an automation firing.
"""
