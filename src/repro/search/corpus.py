"""Violation-case corpus: one JSONL file per verified minimal witness.

Every verified hit is written as a single-line, sorted-key JSON record —
the program spec, the shrunk minimal schedule, the classified violations,
and the content digests that make the case replayable and byte-comparable
across machines.  File names embed the case digest
(``case-<program_index>-<digest12>.jsonl``) so a corpus directory is
content-addressed: identical searches produce byte-identical trees, and
:func:`corpus_digest` folds the case digests into one campaign-level
address (the value the CI smoke and differential goldens pin).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Sequence


def case_filename(case: dict[str, Any]) -> str:
    index = case["program_index"]
    sign = "t" if index < 0 else ""
    return f"case-{sign}{abs(index):05d}-{case['case_digest'][:12]}.jsonl"


def write_case(case: dict[str, Any], directory: Path) -> Path:
    """Write one case record; returns the path (stable for stable cases)."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / case_filename(case)
    line = json.dumps(case, sort_keys=True, separators=(",", ":"))
    path.write_text(line + "\n", encoding="utf-8")
    return path


def write_corpus(cases: Sequence[dict[str, Any]],
                 directory: "str | Path") -> list[Path]:
    """Write every case, ordered by program index; returns the paths."""
    directory = Path(directory)
    return [
        write_case(case, directory)
        for case in sorted(cases, key=lambda c: c["program_index"])
    ]


def corpus_digest(cases: Iterable[dict[str, Any]]) -> str:
    """Order-insensitive content address of a whole corpus.

    Folds the (sorted) case digests, so the value is invariant to batch
    partition, worker count, and cache state — the byte-identity the
    determinism tests and the CI smoke compare.
    """
    digest = hashlib.blake2b(digest_size=16)
    for case_digest in sorted(c["case_digest"] for c in cases):
        digest.update(case_digest.encode("ascii"))
    return digest.hexdigest()
