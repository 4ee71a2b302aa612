"""Byte-level goldens: sha256 of CLI artifacts from a fixed job matrix.

``goldens.json`` maps a job name to the sha256 and size of the artifact it
writes.  A changed digest means the program's output changed; a change that
fixes a defect updates the digest and names it in CHANGES.md.

Run ``PYTHONPATH=src python tests/test_goldens.py`` to print the digests of
the current program as JSON, for comparing against (or replacing)
``goldens.json``; the keys whose digest changed are listed on stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from prefixsynth.cli import main

GOLDENS_PATH = Path(__file__).parent / "goldens.json"
GOLDENS = json.loads(GOLDENS_PATH.read_text())

PROFILES = ("uniform", "lsb-first", "random")

DATAGEN_JOBS = [(bits, profile) for bits in (8, 16, 32, 48) for profile in PROFILES]

# 0.9x, 1.0x and 1.3x the Sklansky delay of each (width, profile) at seed 1.
TARGETS = {
    (16, "uniform"): ("0.1755", "0.1950", "0.2535"),
    (16, "lsb-first"): ("0.2835", "0.3150", "0.4095"),
    (16, "random"): ("0.2289", "0.2543", "0.3306"),
    (32, "uniform"): ("0.2745", "0.3050", "0.3965"),
    (32, "lsb-first"): ("0.3510", "0.3900", "0.5070"),
    (32, "random"): ("0.3813", "0.4236", "0.5507"),
    (64, "uniform"): ("0.4455", "0.4950", "0.6435"),
    (64, "lsb-first"): ("0.4545", "0.5050", "0.6565"),
    (64, "random"): ("0.6591", "0.7323", "0.9520"),
}

SYNTH_ARTIFACTS = ("trace.txt", "design.epr", "design.v", "report.csv")

SYNTH_JOBS = [
    (bits, profile, target)
    for bits in (16, 32, 64)
    for profile in PROFILES
    for target in (None, TARGETS[bits, profile][2])
]

EVAL_JOBS = [(bits, profile) for bits in (16, 32) for profile in PROFILES]

SCRIPTED_JOBS = [(bits, profile) for bits in (16, 32) for profile in PROFILES]

# Textbook adders straight through the emitters, with no policy involved.
EXPORT_JOBS = [
    (structure, bits, style)
    for structure in ("sklansky", "kogge-stone", "brent-kung", "serial")
    for bits in (16, 64, 128)
    for style in ("plain", "inverting")
]


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def _run(argv: list[str], out: Path) -> None:
    seed = [] if argv[0] == "export" else ["--seed", "1"]  # export draws nothing
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + [*seed, "--out", str(out)])
    assert rc == 0


def _datagen(bits: int, profile: str, out: Path) -> dict[str, dict]:
    _run([
        "datagen", "--bits", str(bits), "--profile", profile,
        "--samples", "8", "--eps-scale", "1", "--threshold", "6",
    ], out)
    return {f"datagen-{bits}-{profile}": _digest(out / "samples.jsonl")}


def _synthesize(bits: int, profile: str, target: str | None, out: Path) -> dict[str, dict]:
    argv = ["synthesize", "--bits", str(bits), "--profile", profile]
    if target is not None:
        argv += ["--target", target]
    _run(argv, out)
    name = f"synthesize-{bits}-{profile}-{'target' if target else 'free'}"
    return {f"{name}/{a}": _digest(out / a) for a in SYNTH_ARTIFACTS}


def _script(bits: int) -> str:
    """A fixed scripted run: regroups, a comment and every phase-2 tool."""
    m = bits - 1
    return (
        "# fixed schedule, valid at 16 and 32 bits\n"
        "regroup 3 3 2 2\nregroup 5 5 4 4\nregroup 7 7 6 6\nregroup 7 6 5 4\n"
        f"regroup {m} {m} {m - 1} {m - 1}\n"
        "finish1\n"
        f"level_opt ({m},0)\n"
        "fanout_opt (3,0) (4,0)\n"
        "node_clone (3,0)\n"
        "finish2\n"
    )


def _scripted(bits: int, profile: str, out: Path) -> dict[str, dict]:
    script = out / "script.txt"
    script.write_text(_script(bits))
    argv = ["synthesize", "--bits", str(bits), "--profile", profile]
    _run(argv + ["--policy", f"scripted:{script}"], out)
    name = f"synthesize-scripted-{bits}-{profile}"
    return {f"{name}/{a}": _digest(out / a) for a in SYNTH_ARTIFACTS}


def _eval(bits: int, profile: str, out: Path) -> dict[str, dict]:
    targets = ",".join(TARGETS[bits, profile])
    _run(["eval", "--bits", str(bits), "--profile", profile, "--target", targets], out)
    return {f"eval-{bits}-{profile}/report.csv": _digest(out / "report.csv")}


def _export(structure: str, bits: int, style: str, out: Path) -> dict[str, dict]:
    argv = ["export", "--bits", str(bits), "--structure", structure, "--style", style]
    _run(argv, out)
    name = f"export-{structure}-{bits}-{style}"
    return {f"{name}/{a}": _digest(out / a) for a in ("design.epr", "design.v")}


@pytest.mark.parametrize("bits,profile", DATAGEN_JOBS)
def test_datagen_samples_digest(bits: int, profile: str, tmp_path: Path) -> None:
    got = _datagen(bits, profile, tmp_path)
    assert got == {k: GOLDENS[k] for k in got}


@pytest.mark.parametrize("bits,profile,target", SYNTH_JOBS)
def test_synthesize_artifact_digests(
    bits: int, profile: str, target: str | None, tmp_path: Path
) -> None:
    got = _synthesize(bits, profile, target, tmp_path)
    assert got == {k: GOLDENS[k] for k in got}


@pytest.mark.parametrize("bits,profile", EVAL_JOBS)
def test_eval_report_digest(bits: int, profile: str, tmp_path: Path) -> None:
    got = _eval(bits, profile, tmp_path)
    assert got == {k: GOLDENS[k] for k in got}


@pytest.mark.parametrize("bits,profile", SCRIPTED_JOBS)
def test_scripted_synthesize_digests(bits: int, profile: str, tmp_path: Path) -> None:
    got = _scripted(bits, profile, tmp_path)
    assert got == {k: GOLDENS[k] for k in got}


@pytest.mark.parametrize("structure,bits,style", EXPORT_JOBS)
def test_export_digests(structure: str, bits: int, style: str, tmp_path: Path) -> None:
    got = _export(structure, bits, style, tmp_path)
    assert got == {k: GOLDENS[k] for k in got}


# The default budget, max(64, bits), fits the optimum's whole trace, so
# trace.txt ends phase 1 with finish1; with 4 iterations it stops before.
@pytest.mark.parametrize("bits,max_iters", [(16, None), (32, None), (128, None), (16, 4)])
def test_offline_trace_replays_as_script(
    bits: int, max_iters: int | None, tmp_path: Path
) -> None:
    argv = ["synthesize", "--bits", str(bits)]
    if max_iters is not None:
        argv += ["--max-iters", str(max_iters)]
    _run(argv, tmp_path / "offline")
    trace = tmp_path / "offline" / "trace.txt"
    assert ("finish1" in trace.read_text()) == (max_iters is None)
    _run(argv + ["--policy", f"scripted:{trace}"], tmp_path / "replay")
    for name in ("design.epr", "trace.txt"):
        replayed = (tmp_path / "replay" / name).read_bytes()
        assert replayed == (tmp_path / "offline" / name).read_bytes(), name


def current_digests() -> dict[str, dict]:
    """Digests of every job in the matrix, as the program writes them now."""
    out: dict[str, dict] = {}
    jobs = (
        [(_datagen, job) for job in DATAGEN_JOBS]
        + [(_synthesize, job) for job in SYNTH_JOBS]
        + [(_eval, job) for job in EVAL_JOBS]
        + [(_scripted, job) for job in SCRIPTED_JOBS]
        + [(_export, job) for job in EXPORT_JOBS]
    )
    for run, job in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            out.update(run(*job, Path(tmp)))
    return out


if __name__ == "__main__":
    current = current_digests()
    for key in sorted(current.keys() | GOLDENS.keys()):
        if current.get(key) != GOLDENS.get(key):
            print(f"changed: {key}", file=sys.stderr)
    json.dump(current, sys.stdout, indent=2)
    sys.stdout.write("\n")
