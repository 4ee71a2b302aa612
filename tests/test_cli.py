"""Command-line interface: subcommands, artifacts, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from prefixsynth.cli import main
from prefixsynth.dataio import parse_samples
from prefixsynth.epr import parse_epr
from prefixsynth.graph import exhaustive_addition_check


def run_cli(*argv: str) -> int:
    return main(list(argv))


def test_synthesize_writes_artifacts(tmp_path: Path, capsys) -> None:
    rc = run_cli(
        "synthesize",
        "--bits", "8",
        "--target", "0.25",
        "--out", str(tmp_path),
    )
    assert rc == 0
    for name in ("design.epr", "design.v", "trace.txt", "report.csv"):
        assert (tmp_path / name).exists(), name
    graph = parse_epr((tmp_path / "design.epr").read_text())
    assert graph.width == 8
    assert exhaustive_addition_check(graph) == []
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0] == "target,area,delay,slack,size,level,deficiency"
    assert len(report) == 2
    out = capsys.readouterr().out
    assert "width=8" in out


def test_synthesize_rejects_bad_profile(tmp_path: Path, capsys) -> None:
    rc = run_cli(
        "synthesize", "--bits", "8", "--profile", "bogus", "--out", str(tmp_path)
    )
    assert rc == 1
    assert "profile" in capsys.readouterr().err


def test_synthesize_scripted_policy(tmp_path: Path) -> None:
    script = tmp_path / "steps.txt"
    script.write_text(
        "regroup 3 3 2 2\n"
        "regroup 5 5 4 4\n"
        "regroup 7 7 6 6\n"
        "regroup 7 6 5 4\n"
        "finish1\n"
        "finish2\n"
    )
    out = tmp_path / "run"
    rc = run_cli(
        "synthesize",
        "--bits", "8",
        "--policy", f"scripted:{script}",
        "--out", str(out),
    )
    assert rc == 0
    trace = (out / "trace.txt").read_text()
    assert "regroup 7 6 5 4" in trace


def test_synthesize_scripted_illegal_call_aborts(tmp_path: Path, capsys) -> None:
    script = tmp_path / "bad.txt"
    script.write_text("regroup 9 9 8 8\nfinish1\n")
    out = tmp_path / "run"
    rc = run_cli(
        "synthesize",
        "--bits", "8",
        "--policy", f"scripted:{script}",
        "--out", str(out),
    )
    assert rc == 2
    assert (out / "trace.txt").exists()
    assert "aborted" in capsys.readouterr().err


def test_datagen_emits_jsonl(tmp_path: Path) -> None:
    rc = run_cli(
        "datagen",
        "--bits", "6",
        "--samples", "12",
        "--threshold", "0",
        "--out", str(tmp_path),
    )
    assert rc == 0
    payload = (tmp_path / "samples.jsonl").read_text()
    samples = parse_samples(payload)
    assert samples
    for sample in samples:
        assert sample.width == 6
        assert sample.metadata["think_filled"] is False


def test_eval_sweeps_target_list(tmp_path: Path) -> None:
    rc = run_cli(
        "eval",
        "--bits", "8",
        "--target", "0.15,0.2,0.3",
        "--out", str(tmp_path),
    )
    assert rc == 0
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0].startswith("target,")
    assert len(lines) == 4
    targets = [float(l.split(",")[0]) for l in lines[1:]]
    assert targets == [0.15, 0.2, 0.3]


def test_eval_requires_targets(tmp_path: Path, capsys) -> None:
    rc = run_cli("eval", "--bits", "8", "--out", str(tmp_path))
    assert rc == 1
    assert "target" in capsys.readouterr().err.lower()


def test_export_structure(tmp_path: Path) -> None:
    rc = run_cli(
        "export",
        "--bits", "16",
        "--structure", "kogge-stone",
        "--style", "inverting",
        "--out", str(tmp_path),
    )
    assert rc == 0
    text = (tmp_path / "design.v").read_text()
    assert "module prefix_adder_16" in text


def test_export_then_verify(tmp_path: Path) -> None:
    epr_out = tmp_path / "design"
    assert run_cli("synthesize", "--bits", "6", "--out", str(epr_out)) == 0
    rc = run_cli("verify", str(epr_out / "design.epr"))
    assert rc == 0


def test_verify_catches_broken_design(tmp_path: Path, capsys) -> None:
    epr_out = tmp_path / "design"
    assert run_cli("synthesize", "--bits", "4", "--out", str(epr_out)) == 0
    path = epr_out / "design.epr"
    # corrupt one parent pointer: (2,0) now reads the (3,0) output
    text = path.read_text().replace("up:(2,2),lp:(1,0)", "up:(2,2),lp:(0,0)")
    broken = tmp_path / "broken.epr"
    broken.write_text(text)
    rc = run_cli("verify", str(broken))
    assert rc == 1
    assert capsys.readouterr().err


def test_export_missing_input_is_config_error(tmp_path: Path, capsys) -> None:
    rc = run_cli("export", "--input", str(tmp_path / "absent.epr"))
    assert rc == 1


def test_unknown_policy_is_config_error(tmp_path: Path, capsys) -> None:
    rc = run_cli("synthesize", "--bits", "4", "--policy", "oracle", "--out", str(tmp_path))
    assert rc == 1
    assert "policy" in capsys.readouterr().err.lower()


def test_remote_policy_requires_endpoint(tmp_path: Path, monkeypatch, capsys) -> None:
    monkeypatch.delenv("PREFIXSYNTH_API_BASE", raising=False)
    rc = run_cli("synthesize", "--bits", "4", "--policy", "remote", "--out", str(tmp_path))
    assert rc == 1


def test_profile_file_round_trip(tmp_path: Path) -> None:
    prof = tmp_path / "arrivals.txt"
    prof.write_text("".join(f"{i}, 0.0{i}00\n" for i in range(8)))
    rc = run_cli(
        "synthesize",
        "--bits", "8",
        "--profile", str(prof),
        "--out", str(tmp_path / "run"),
    )
    assert rc == 0


def test_console_entry_point_runs() -> None:
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "prefixsynth", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for sub in ("synthesize", "datagen", "eval", "export", "verify"):
        assert sub in proc.stdout


@pytest.mark.parametrize("command", ["export", "verify"])
def test_bad_epr_is_line_numbered_error(command: str, tmp_path: Path, capsys) -> None:
    bad = tmp_path / "bad.epr"
    bad.write_text("not an epr file\n")
    argv = ["export", "--input", str(bad), "--out", str(tmp_path)]
    rc = run_cli(*argv) if command == "export" else run_cli("verify", str(bad))
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"{command}: line 1: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["synthesize", "datagen", "eval"])
def test_bad_target_is_config_error(
    command: str, value: str, tmp_path: Path, capsys
) -> None:
    target = f"0.2,{value}" if command == "eval" else value
    rc = run_cli(command, "--bits", "4", f"--target={target}", "--out", str(tmp_path))
    assert rc == 1
    assert "--target must be a finite delay >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
