"""Every example script must run cleanly end to end and print what it printed.

Each script's stdout is held to a blake2b-128 digest, so a change that
moves what an example prints shows up here rather than by hand.  The
digests hold whatever ran earlier in the process: ``observability_demo.py``
prints message, hold and rule ids, which each home numbers for itself.
"""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))

#: blake2b (16-byte digest) of each example's stdout.
STDOUT_BLAKE2B = {
    "burglary_storm_door.py": "449a013b344cb431b3aeb56cb72fb0b5",
    "countermeasure_evaluation.py": "5ba70dc0486836af741d245a7e617c2c",
    "fault_injection_demo.py": "740cd8e563ce0d4ac4d06d048bbf1ea7",
    "full_campaign.py": "c2770bccc6b1136d9a04b34df8fb3f2a",
    "observability_demo.py": "4065ad733c595764b7eb1d5838aa8868",
    "profiling_campaign.py": "70491aab6621cfe8581734f41b9f4e4a",
    "quickstart.py": "b651417792e2619b8c00cfb1e7d661cd",
    "rule_inference_attack.py": "72dbe9d21e40d5140ccc84951fff4546",
    "smoke_alert_delay.py": "a2b581014237f5190ca5339a1841e733",
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script.name} produced no output"
    digest = hashlib.blake2b(out.encode(), digest_size=16).hexdigest()
    assert digest == STDOUT_BLAKE2B[script.name], f"{script.name} printed different bytes"


def test_examples_exist():
    assert len(EXAMPLES) >= 6
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert set(STDOUT_BLAKE2B) == names
