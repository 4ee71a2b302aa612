"""Command-line interface: subcommands, artifacts, exit codes."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import tempfile
import urllib.request
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prefixsynth import cli
from prefixsynth.backbone import init_serial, regroup
from prefixsynth.cli import main
from prefixsynth.dataio import parse_samples
from prefixsynth.epr import parse_epr
from prefixsynth.esat import extract_optimal
from prefixsynth.graph import exhaustive_addition_check
from prefixsynth.policy import Action, RemoteEndpoint, RemoteLlmPolicy, run_phase1
from prefixsynth.timing import ArrivalProfile, DelayModel


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


@pytest.mark.parametrize("bits", [65, 128, 256])
def test_synthesize_wide_adders_pass_the_addition_check(bits: int, tmp_path: Path) -> None:
    assert run_cli("synthesize", "--bits", str(bits), "--seed", "1", "--out", str(tmp_path)) == 0
    assert run_cli("verify", str(tmp_path / "design.epr"), "--seed", "2") == 0


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


@pytest.mark.parametrize("bits", [16, 32])
def test_datagen_samples_are_the_served_prompts(bits: int, tmp_path: Path) -> None:
    # Serve each sample back through the remote policy, answering every
    # prompt with the sample's call: the model must be shown exactly what
    # it was trained on, and the run must rebuild the sample's backbone.
    rc = run_cli(
        "datagen", "--bits", str(bits), "--profile", "random", "--seed", "5",
        "--target", "0.5", "--samples", "4", "--threshold", "6",
        "--out", str(tmp_path),
    )
    assert rc == 0
    samples = parse_samples((tmp_path / "samples.jsonl").read_text())
    assert samples
    model = DelayModel()
    profile = ArrivalProfile.preset("random", bits, model, 5)
    for sample in samples:
        calls = [Action.from_json(turn.call) for turn in sample.turns]
        replies = iter(json.dumps(turn.call) for turn in sample.turns)
        seen: list[list[dict]] = []

        def transport(messages: list[dict]) -> str:
            seen.append(messages)
            return next(replies)

        policy = RemoteLlmPolicy(RemoteEndpoint("http://unused"), transport)
        # the budget serving uses by default, max(64, --bits)
        result = run_phase1(bits, profile, 0.5, max(64, bits), policy, model)
        assert [m[0] for m in seen] == [{"role": "system", "content": sample.system}] * len(seen)
        assert [m[1:] for m in seen] == [
            [{"role": "user", "content": turn.state}] for turn in sample.turns
        ]
        expected = init_serial(bits)
        for call in calls[:-1]:
            expected = regroup(expected, *call.args)
        assert calls[-1] == Action("finish1")
        assert result.finished
        assert result.backbone == expected


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


def test_eval_rejects_missing_script(tmp_path: Path, capsys) -> None:
    rc = run_cli(
        "eval", "--bits", "8", "--target", "0.2",
        "--policy", f"scripted:{tmp_path / 'missing.txt'}",
        "--out", str(tmp_path),
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("eval: cannot read script")
    assert len(err.strip().splitlines()) == 1


def test_eval_scripted_reproduces_synthesize_row(tmp_path: Path) -> None:
    script = tmp_path / "steps.txt"
    script.write_text(
        "regroup 3 3 2 2\n"
        "regroup 7 7 6 6\n"
        "finish1\n"
        "level_opt (7,0)\n"
        "finish2\n"
    )
    policy = f"scripted:{script}"
    argv = ["--bits", "8", "--target", "0.2", "--policy", policy]
    assert run_cli("synthesize", *argv, "--out", str(tmp_path / "s")) == 0
    assert run_cli("eval", *argv, "--out", str(tmp_path / "e")) == 0
    synth_rows = (tmp_path / "s" / "report.csv").read_text()
    eval_rows = (tmp_path / "e" / "report.csv").read_text()
    assert eval_rows == synth_rows
    assert "level_opt (7,0)" in (tmp_path / "s" / "trace.txt").read_text()


def test_eval_scripted_illegal_call_aborts(tmp_path: Path, capsys) -> None:
    script = tmp_path / "bad.txt"
    script.write_text("regroup 9 9 8 8\nfinish1\n")
    rc = run_cli(
        "eval", "--bits", "8", "--target", "0.2",
        "--policy", f"scripted:{script}", "--out", str(tmp_path),
    )
    assert rc == 2
    assert "phase 1 aborted" in capsys.readouterr().err
    assert (tmp_path / "trace.txt").read_text() == ""
    assert not (tmp_path / "report.csv").exists()


@pytest.mark.parametrize(
    "bits,target,area,delay",
    [
        (7, "0.12", 11, "0.1200"),
        (7, "0.11999999999999998", 11, "0.1200"),
        (14, "0.185", 32, "0.1850"),
        (14, "0.18499999999999997", 32, "0.1850"),
    ],
)
def test_eval_meets_a_target_one_bit_below_the_delay(
    tmp_path: Path, bits: int, target: str, area: int, delay: str
) -> None:
    # The long targets are the float Sklansky delays at these widths; the
    # designs that meet them sum the same steps in another order, so their
    # delays differ in the last bit.  Such a design meets its target, and
    # phase 2 stops there.
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("eval", "--bits", str(bits), "--target", target,
                       "--out", str(tmp_path)) == 0
    header, row = (tmp_path / "report.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert (int(cells["area"]), cells["delay"], cells["slack"]) == (area, delay, "0.0000")


def test_phase2_abort_keeps_the_phase1_trace(tmp_path: Path, capsys) -> None:
    # (3,2) drives only (3,0), so it cannot be cloned.
    script = tmp_path / "bad.txt"
    script.write_text("regroup 3 3 2 2\nfinish1\nnode_clone (3,2)\n")
    rc = run_cli(
        "synthesize", "--bits", "4", "--policy", f"scripted:{script}", "--out", str(tmp_path),
    )
    assert rc == 2
    assert "phase 2 aborted: 3 consecutive rejected decisions" in capsys.readouterr().err
    assert (tmp_path / "trace.txt").read_text() == "regroup 3 3 2 2\nfinish1\n"


def test_eval_extracts_the_optimum_once(tmp_path: Path, monkeypatch) -> None:
    calls = []

    def counted(*args):
        calls.append(args)
        return extract_optimal(*args)

    monkeypatch.setattr(cli, "extract_optimal", counted)
    rc = run_cli("eval", "--bits", "16", "--target", "0.18,0.2,0.25", "--out", str(tmp_path))
    assert rc == 0
    assert len(calls) == 1


def test_eval_reads_its_script_once(tmp_path: Path, monkeypatch) -> None:
    script = tmp_path / "steps.txt"
    script.write_text("regroup 3 3 2 2\nfinish1\nfinish2\n")
    reads = []
    read_input = cli._read_input

    def counted(path: str, what: str) -> str:
        reads.append(what)
        return read_input(path, what)

    monkeypatch.setattr(cli, "_read_input", counted)
    rc = run_cli(
        "eval", "--bits", "8", "--target", "0.15,0.2,0.3",
        "--policy", f"scripted:{script}", "--out", str(tmp_path),
    )
    assert rc == 0
    assert reads == ["script"]
    rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
    # each target replays the whole script, so only target and slack differ
    fields = [row.split(",") for row in rows]
    assert len({(f[1], f[2], *f[4:]) for f in fields}) == 1


@pytest.mark.parametrize(
    "command,option",
    [
        ("export", "--profile"), ("export", "--seed"), ("export", "--target"),
        ("export", "--max-iters"), ("export", "--policy"), ("export", "--model-d"),
        ("datagen", "--policy"), ("datagen", "--max-iters"),
    ],
)
def test_subcommand_rejects_options_it_does_not_read(
    command: str, option: str, tmp_path: Path, capsys
) -> None:
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--bits", "4", option, "1", "--out", str(tmp_path))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_export_bits_out_of_range_is_config_error(tmp_path: Path, capsys) -> None:
    assert run_cli("export", "--bits", "1", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err.startswith("export: --bits must be in [2, 256]")


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
    # corrupt one parent pointer: (2,0) now reads (0,0) and skips bit 1
    original = path.read_text()
    text = original.replace("up:(2,2),lp:(1,0)", "up:(2,2),lp:(0,0)")
    assert text != original, "the 4-bit design changed; corrupt another pointer"
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


@pytest.mark.parametrize(
    "kind,content,line",
    [
        ("script", "regroup 3 3 2 2\nregroup 1 2\n", 2),
        ("script", "regroup 3 3 2 2\nfinish1\n# note\nlevel_opt (3,x)\n", 4),
        ("script", "regroup 3 3 2 2\nfinish1\nlevel_opt (7,0)\nregroup 5 5 4 4\n", 4),
        ("script", "level_opt (7,0)\nregroup 3 3 2 2\n", 2),
        ("profile", "0, 0.0\n1 0.1\n", 2),
        ("profile", "0, 0.0\n1, nan\n", 2),
        ("profile", "0, inf\n1, 0.0\n", 1),
        ("profile", "0, 0.0\n1, 0.1\n2, 1e400\n", 3),
        ("remote", "{not json\n", 1),
        ("remote", '{"base_url": 5}\n', None),
    ],
    ids=[
        "script-phase1-line", "script-phase2-token", "script-regroup-after-edit",
        "script-regroup-without-finish1", "profile-line", "profile-nan", "profile-inf",
        "profile-overflow", "remote-not-json",
        "remote-base-url-not-string",
    ],
)
def test_bad_input_file_is_located_config_error(
    kind: str, content: str, line: int | None, tmp_path: Path, capsys
) -> None:
    path = tmp_path / "input.txt"
    path.write_text(content)
    option = {
        "script": ["--policy", f"scripted:{path}"],
        "profile": ["--profile", str(path)],
        "remote": ["--policy", f"remote:{path}"],
    }[kind]
    rc = run_cli("synthesize", "--bits", "8", *option, "--out", str(tmp_path / "run"))
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    location = str(path) if line is None else f"{path}:{line}"
    assert err.startswith(f"synthesize: {location}: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("kind", ["profile", "script", "design", "remote", "export"])
def test_undecodable_input_file_is_config_error(kind: str, tmp_path: Path, capsys) -> None:
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe0, 0.1\n")
    argv = {
        "profile": ["synthesize", "--bits", "4", "--profile", str(path)],
        "script": ["synthesize", "--bits", "4", "--policy", f"scripted:{path}"],
        "design": ["verify", str(path)],
        "remote": ["synthesize", "--bits", "4", "--policy", f"remote:{path}"],
        "export": ["export", "--bits", "4", "--input", str(path)],
    }[kind]
    if kind != "design":
        argv += ["--out", str(tmp_path / "run")]
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(f"{argv[0]}: {path}: ")


# -- hostile input -----------------------------------------------------------------

_EPR_4 = """\
Bitwidth: 4
Non-input nodes: 4
Max level: 2
Max fanout: 2

Input nodes:
(0,0), tf: [], ntf: [(1,0)]
(1,1), tf: [(1,0)], ntf: []
(2,2), tf: [(2,0)], ntf: [(3,2)]
(3,3), tf: [(3,2)], ntf: []

Non-input nodes:
(3,0),lvl:2,up:(3,2),lp:(1,0),tf:[],ntf: []
(3,2),lvl:1,up:(3,3),lp:(2,2),tf:[(3,0)],ntf: []
(2,0),lvl:2,up:(2,2),lp:(1,0),tf:[],ntf: []
(1,0),lvl:1,up:(1,1),lp:(0,0),tf:[],ntf: [(2,0), (3,0)]
"""

_NODES = ["(3,0)", "(3,2)", "(2,0)", "(1,0)", "(2,1)", "(3,3)", "(0,0)", "(9,0)", "(3,0,1)"]


def _lines(words: list[str]) -> st.SearchStrategy[bytes]:
    """Raw bytes, or lines of the format's own words mixed with junk."""
    word = st.sampled_from(words) | st.text(max_size=8)
    line = st.lists(word, max_size=6).map(" ".join)
    return st.binary(max_size=300) | st.lists(line, max_size=20).map(
        lambda ls: "\n".join(ls).encode("utf-8", "surrogatepass")
    )


_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

_TOOL_CALL = st.builds(
    lambda tool, args: json.dumps({"tool": tool, "args": args}),
    st.sampled_from(["regroup", "finish1", "level_opt", "fanout_opt", "node_clone",
                     "finish2", "think"]),
    st.dictionaries(st.sampled_from(["a", "b", "node", "driver", "consumer", "target"]),
                    st.sampled_from(_NODES) | _JSON, max_size=3),
)

_REPLY = st.binary(max_size=100) | st.builds(
    lambda content: json.dumps({"choices": [{"message": {"content": content}}]}).encode(),
    _TOOL_CALL | _JSON | st.text(max_size=40),
)

_HOSTILE = {
    "epr-verify": _lines(_EPR_4.split() + _EPR_4.splitlines()),
    "epr-export": _lines(_EPR_4.split() + _EPR_4.splitlines()),
    "script": _lines(["regroup", "finish1", "level_opt", "fanout_opt", "node_clone",
                      "finish2", "#", "3", "2", "1", "0", *_NODES]),
    "profile": _lines(["0,", "1,", "2,", "3,", "4,", "0.1", "nan", "inf", "-1", "1e400",
                       "0, 0.0", "1, 0.02", "2, 0.01", "3, 0.03"]),
    "remote-config": _JSON.map(lambda v: json.dumps(v).encode()) | st.binary(max_size=100),
    "remote-reply": st.lists(_REPLY, min_size=1, max_size=4),
}


@pytest.mark.parametrize("kind", sorted(_HOSTILE))
def test_hostile_input_exits_cleanly(kind: str) -> None:
    """Arbitrary file contents and remote replies end in exit 0, 1 or 2 with
    no traceback; the remote transport is patched, so no socket opens."""

    @given(_HOSTILE[kind])
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def run(data) -> None:
        replies = itertools.cycle(data if kind == "remote-reply" else [b"{}"])

        def urlopen(request, timeout=None):
            return io.BytesIO(next(replies))

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(urllib.request, "urlopen", urlopen)
            path = Path(tmp) / "input"
            config = Path(tmp) / "remote.json"
            config.write_text('{"base_url": "http://fuzz.invalid"}')
            if kind != "remote-reply":
                path.write_bytes(data)
            out = ["--out", str(Path(tmp) / "run")]
            synth = ["synthesize", "--bits", "4", "--max-iters", "3", *out]
            argv = {
                "epr-verify": ["verify", str(path)],
                "epr-export": ["export", "--input", str(path), *out],
                "script": [*synth, "--policy", f"scripted:{path}"],
                "profile": [*synth, "--profile", str(path)],
                "remote-config": [*synth, "--policy", f"remote:{path}"],
                "remote-reply": [*synth, "--policy", f"remote:{config}"],
            }[kind]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(argv)
        assert rc in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()

    run()
