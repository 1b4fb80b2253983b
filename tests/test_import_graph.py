"""Each module on both sides of the ``simnet``/``tcp`` boundary imports first.

``simnet`` recognises and sizes TCP frames by :class:`~repro.tcp.segment.TcpSegment`,
while the TCP stack sits on ``simnet``'s hosts.  An import cycle between the
two shows only when one of its modules is the first to be imported, and under
pytest that order is whichever the collected test files happen to use.  So
each module here is imported first, in a fresh interpreter of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

MODULES = (
    "repro.simnet",
    "repro.simnet.packet",
    "repro.simnet.trace",
    "repro.tcp",
    "repro.tcp.segment",
    "repro.tcp.connection",
    "repro.faults.injector",
    "repro.core.hijacker",
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
