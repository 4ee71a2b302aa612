"""Training-sample synthesis, Verilog emission, and report formatting."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.dataio import (
    THINK_SLOT,
    SampleFormatError,
    TrainingSample,
    VerilogError,
    emit_report,
    emit_samples,
    emit_verilog,
    parse_samples,
    simulate_verilog,
    synthesize_samples,
)
from prefixsynth import policy
from prefixsynth.esat import derive_trace
from prefixsynth.graph import Node
from prefixsynth.policy import Action, RegroupTrace
from prefixsynth.structures import brent_kung_graph, kogge_stone_graph, sklansky_graph
from prefixsynth.timing import ArrivalProfile, DelayModel, SweepRow

from oracles import random_shape, shape_to_backbone


def _trace8() -> RegroupTrace:
    return derive_trace(balanced_backbone(8))


def test_synthesize_samples_shape() -> None:
    samples, diagnostics = synthesize_samples(
        [_trace8()], 8, ArrivalProfile.uniform(8)
    )
    assert diagnostics == []
    assert len(samples) == 1
    sample = samples[0]
    assert sample.width == 8
    # one turn per regroup plus the finishing turn
    assert len(sample.turns) == len(_trace8().steps) + 1
    assert sample.metadata == {"think_filled": False, "steps": 4}
    for turn in sample.turns:
        assert turn.think == THINK_SLOT
    assert sample.turns[-1].call == {"tool": "finish1", "args": {}}


def test_sample_turns_carry_fresh_feedback() -> None:
    samples, _ = synthesize_samples([_trace8()], 8, ArrivalProfile.uniform(8))
    first = samples[0].turns[0]
    # feedback shows the post-step tree and the next candidate menu
    assert "[arrival=" in first.feedback
    assert "candidates" in first.feedback.lower()
    assert first.call["tool"] == "regroup"


def test_synthesize_samples_diagnostics() -> None:
    bad_width = RegroupTrace(6, _trace8().steps)
    illegal = RegroupTrace(8, (Action("regroup", (Node(9, 9), Node(8, 8))),))
    samples, diagnostics = synthesize_samples(
        [bad_width, illegal, _trace8()], 8, ArrivalProfile.uniform(8)
    )
    assert len(samples) == 1
    assert len(diagnostics) == 2


def test_synthesize_samples_renders_each_backbone_once(monkeypatch) -> None:
    calls = {"to_timed_sexpr": 0, "find_candidates": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(policy, "to_timed_sexpr")
    counted(policy, "find_candidates")
    rng = random.Random(5)
    traces = [_trace8(), RegroupTrace(8, ())] + [
        derive_trace(shape_to_backbone(random_shape(7, 0, rng)))
        for _ in range(4)
    ]
    samples, _ = synthesize_samples(traces, 8, ArrivalProfile.uniform(8))
    # every trace visits the serial start plus one backbone per step
    backbones = sum(len(trace.steps) + 1 for trace in traces)
    assert len(samples) == len(traces)
    assert calls == {"to_timed_sexpr": backbones, "find_candidates": backbones}


def test_emit_parse_round_trip() -> None:
    samples, _ = synthesize_samples(
        [derive_trace(balanced_backbone(8)), RegroupTrace(8, ())],
        8,
        ArrivalProfile.uniform(8),
    )
    text = emit_samples(samples)
    assert text.count("\n") == len(samples)
    again = parse_samples(text)
    assert again == samples
    # each line is standalone JSON
    for line in text.splitlines():
        json.loads(line)


def test_parse_samples_rejects_bad_lines() -> None:
    with pytest.raises(SampleFormatError):
        parse_samples("not json\n")
    with pytest.raises(SampleFormatError):
        parse_samples('{"system": "x"}\n')


def test_verilog_plain_module_header() -> None:
    text = emit_verilog(complete(balanced_backbone(4)))
    assert "module prefix_adder_4 (a, b, s, cout);" in text.splitlines()
    assert "endmodule" in text
    assert " nand " not in text


def test_verilog_inverting_uses_mixed_gates() -> None:
    text = emit_verilog(sklansky_graph(8), style="inverting")
    assert "nand" in text or "nor" in text
    assert "xnor" in text


def test_verilog_rejects_unknown_style() -> None:
    with pytest.raises(VerilogError):
        emit_verilog(sklansky_graph(4), style="fancy")


@pytest.mark.parametrize("style", ["plain", "inverting"])
@pytest.mark.parametrize(
    "make",
    [sklansky_graph, kogge_stone_graph, brent_kung_graph],
    ids=lambda f: f.__name__,
)
def test_verilog_simulates_addition(style: str, make) -> None:
    g = make(8)
    text = emit_verilog(g, style=style)
    for a, b in ((0, 0), (255, 1), (170, 85), (200, 200), (255, 255)):
        s, cout = simulate_verilog(text, a, b)
        assert (cout << 8) | s == a + b


@given(
    st.integers(2, 10),
    st.randoms(use_true_random=False),
    st.sampled_from(["plain", "inverting"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_verilog_random_graphs_random_vectors(width, rng, style, data) -> None:
    g = complete(shape_to_backbone(random_shape(width - 1, 0, rng)))
    text = emit_verilog(g, style=style)
    a = data.draw(st.integers(0, (1 << width) - 1))
    b = data.draw(st.integers(0, (1 << width) - 1))
    s, cout = simulate_verilog(text, a, b)
    assert (cout << width) | s == a + b


def test_verilog_handles_cloned_nodes() -> None:
    from prefixsynth.refine import node_clone

    g = node_clone(complete(balanced_backbone(8)), Node(3, 0))
    for style in ("plain", "inverting"):
        s, cout = simulate_verilog(emit_verilog(g, style=style), 171, 94)
        assert (cout << 8) | s == 171 + 94


def test_report_format() -> None:
    rows = [
        SweepRow(
            target=0.2,
            area=11,
            delay=0.145,
            slack=0.055,
            size=11,
            level=4,
            deficiency=1,
        )
    ]
    text = emit_report(rows)
    lines = text.splitlines()
    assert lines[0] == "target,area,delay,slack,size,level,deficiency"
    assert lines[1] == "0.2000,11,0.1450,0.0550,11,4,1"
    assert text.endswith("\n")
