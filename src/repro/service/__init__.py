"""Campaign service: an async job-queue front-end over cache + runner.

The service (:mod:`repro.service.server`) accepts JSON campaign specs over
a line-JSON socket protocol (:mod:`repro.service.protocol`),
content-addresses each one with the cache's digest machinery (duplicate
submissions coalesce onto one execution), schedules jobs by priority onto
one shared worker pool, supports cooperative cancellation, and streams
progress plus a terminal result that is byte-identical to the equivalent
one-shot CLI invocation.  :mod:`repro.service.client` talks to it.
"""
