"""The paper's contribution: phantom-delay attack primitives and attacks.

Kill chain, in the paper's order:

1. :class:`~repro.core.profiler.TimeoutProfiler` — learn a device model's
   timeout behaviour (offline, on attacker-owned hardware);
2. :class:`~repro.core.fingerprint.FingerprintDatabase` — recognise victim
   devices from encrypted traffic metadata;
3. :class:`~repro.core.arp_spoofer.ArpSpoofer` +
   :class:`~repro.core.hijacker.TcpHijacker` — interpose on the session;
4. :class:`~repro.core.primitives.EDelay` /
   :class:`~repro.core.primitives.CDelay` — the attack primitives;
5. :mod:`repro.core.attacks` — Type-I/II/III end-to-end attacks.

:class:`~repro.core.attacker.PhantomDelayAttacker` bundles the chain.
"""
