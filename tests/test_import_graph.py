"""The package's import graph: no cycles, and one import path per name.

``simnet`` recognises and sizes TCP frames by :class:`~repro.tcp.segment.TcpSegment`,
while the TCP stack sits on ``simnet``'s hosts; the campaign runner stores
shards in the cache, whose keys derive seeds the runner's way.  An import
cycle shows only when one of its modules is the first to be imported, and
under pytest that order is whichever the collected test files happen to
use.  So each module here is imported first, in a fresh interpreter of its
own.

A package ``__init__`` holds its docstring and nothing else (the root also
holds ``__version__``): every name is imported from the module that
defines it, so importing a module loads what it uses and no more.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
PACKAGE = Path(repro.__file__).resolve().parent

MODULES = (
    "repro.simnet",
    "repro.simnet.packet",
    "repro.simnet.trace",
    "repro.tcp",
    "repro.tcp.segment",
    "repro.tcp.connection",
    "repro.faults.injector",
    "repro.core.hijacker",
    "repro.parallel.runner",
    "repro.cache.store",
)


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_interpreter(module):
    proc = _fresh_interpreter(f"import {module}")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "init", sorted(PACKAGE.rglob("__init__.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_package_init_holds_only_its_docstring(init):
    body = ast.parse(init.read_text()).body
    assert body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    # Each later statement's source up to " = ": an assignment's target,
    # an import's whole text.
    rest = [ast.unparse(node).split(" = ")[0] for node in body[1:]]
    assert rest == (["__version__"] if init.parent == PACKAGE else [])


def test_spec_and_client_modules_leave_the_simulator_unloaded():
    proc = _fresh_interpreter(
        "import sys\n"
        "import repro.fleet.spec, repro.search.spec, repro.parallel.seeds\n"
        "import repro.service.client\n"
        "heavy = ('repro.testbed', 'repro.simnet.scheduler', 'repro.experiments.registry')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
