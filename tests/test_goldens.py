"""Byte-level goldens: sha256 of CLI artifacts from a fixed job matrix.

``goldens.json`` maps a job name to the sha256 and size of the artifact it
writes.  A changed digest means the program's output changed; a change that
fixes a defect updates the digest and names it in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from prefixsynth.cli import main

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())

DATAGEN_JOBS = [
    (bits, profile) for bits in (16, 32) for profile in ("uniform", "lsb-first", "random")
]


@pytest.mark.parametrize("bits,profile", DATAGEN_JOBS)
def test_datagen_samples_digest(bits: int, profile: str, tmp_path: Path, capsys) -> None:
    rc = main([
        "datagen",
        "--bits", str(bits),
        "--profile", profile,
        "--seed", "1",
        "--samples", "8",
        "--eps-scale", "1",
        "--threshold", "6",
        "--out", str(tmp_path),
    ])
    assert rc == 0
    data = (tmp_path / "samples.jsonl").read_bytes()
    got = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
    assert got == GOLDENS[f"datagen-{bits}-{profile}"]
