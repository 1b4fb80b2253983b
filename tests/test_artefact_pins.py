"""Canonical-result pins for registry artefacts beyond Tables I and III.

Table I and Table III carry their own pins in
``test_scheduler_equivalence``.  These cover the registry artefacts whose
drivers build e-Delay/c-Delay holds, Table II (HomeKit devices profiled
against the LAN server) and device recognition (sniffed flows matched
against the fingerprint database), so a refactor of how a hold is armed,
how the testbed builds a device or how a server terminates its session
cannot move a single result without failing here.  Robustness replays the
Table III cases over the loss x jitter grid of the fault injector.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cache.keys import canonical
from repro.experiments.registry import get_experiment
from repro.parallel import CampaignRunner

#: blake2b-128 of ``canonical(get_experiment(name).run(seed=7, ...))`` on a
#: serial, manifest-free runner.
ARTEFACT_BLAKE2B = {
    "figure3": "222c4e0786e59907680df57a6552eb0d",
    "findings": "446f377434d4e0b6cabc376ad58f8abe",
    "countermeasures": "22c3db6962a7ad589ab5ff05ae46ef35",
    "integrity": "c0f66036fd578b22986a87591c1fad60",
    "jamming": "900df2f4dee4278b0e8618e0812454d8",
    "verify": "8c127d282d3eafd4c63e4f476291ca26",
    "table2": "b419219218363def5ebf95fc6f763db1",
    "recognition": "4477ed5d78d769976aacffe27d4858fb",
    "robustness": "9fc65d03e21b33c0bbf1a5f5ce2553e2",
}


@pytest.mark.parametrize("name", sorted(ARTEFACT_BLAKE2B))
def test_artefact_canonical_digest_pin(name):
    result = get_experiment(name).run(
        seed=7, runner=CampaignRunner(jobs=1, manifest=False)
    )
    digest = hashlib.blake2b(canonical(result), digest_size=16).hexdigest()
    assert digest == ARTEFACT_BLAKE2B[name], (
        f"{name} canonical result moved: {digest}"
    )
