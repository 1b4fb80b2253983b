"""Content-addressed campaign cache: re-run nothing the code already ran.

Modules:

* :mod:`repro.cache.store` — :class:`~repro.cache.store.CampaignCache`,
  the disk store (``key_for`` / ``get`` / ``put`` plus the ``stats`` /
  ``verify`` / ``gc`` maintenance surface behind ``phantom-delay cache``);
  :func:`~repro.cache.store.resolve_cache`, which normalises the
  ``cache=`` argument a :class:`~repro.parallel.runner.CampaignRunner`
  accepts (``True`` → default store, ``False``/``None`` → off, instance →
  itself); and :func:`~repro.cache.store.write_atomically`, the one
  temp-file-and-replace write behind cache entries, manifests and metric
  exports;
* :mod:`repro.cache.keys` — the key derivation (``code_fingerprint``,
  ``canonical``, ``digest``), pinned by golden digests in
  ``tests/test_cache.py``.

See ``docs/API.md`` for the keying rules and invalidation model.
"""
