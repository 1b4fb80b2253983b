"""repro — reproduction of "IoT Phantom-Delay Attacks" (DSN 2022).

The package is layered bottom-up:

* :mod:`repro.simnet` — discrete-event network simulator (LAN, ARP, WAN).
* :mod:`repro.tcp` / :mod:`repro.tls` — transport substrates whose decoupled
  timeout-vs-integrity behaviour is the design flaw the paper exploits.
* :mod:`repro.appproto` — MQTT / HTTP / HAP application protocols with their
  keep-alive and timeout rules.
* :mod:`repro.devices` — 50 parameterised IoT device models.
* :mod:`repro.cloud` + :mod:`repro.automation` — IoT servers and the
  trigger-condition-action automation engine.
* :mod:`repro.core` — the paper's contribution: sniffing, timeout profiling,
  the e-Delay / c-Delay primitives, and the Type-I/II/III attacks.
* :mod:`repro.countermeasures` — the Section VII defences.

Most users start from :class:`repro.testbed.SmartHomeTestbed` (a ready-made
home + cloud + attacker) or from the examples directory.
"""

__version__ = "1.0.0"
