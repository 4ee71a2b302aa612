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
from prefixsynth.graph import Node
from prefixsynth.structures import brent_kung_graph, kogge_stone_graph, sklansky_graph
from prefixsynth.timing import ArrivalProfile, DelayModel, SweepRow

from oracles import random_shape, shape_to_backbone


def test_synthesize_samples_shape() -> None:
    samples = synthesize_samples(
        [balanced_backbone(8)], ArrivalProfile.uniform(8), max_iters=64
    )
    assert len(samples) == 1
    sample = samples[0]
    assert sample.width == 8
    # one turn per regroup plus the finishing turn
    assert len(sample.turns) == 5
    assert sample.metadata == {"think_filled": False, "steps": 4}
    for turn in sample.turns:
        assert turn.think == THINK_SLOT
    assert sample.turns[-1].call == {"tool": "finish1", "args": {}}
    # the prompts carry the budget they were served at
    assert "Iteration 5 of 64." in sample.turns[-1].state
    # a budget that cuts the walk short records no sample
    with pytest.raises(ValueError, match="walk needs 5 decisions, budget is 4"):
        synthesize_samples([balanced_backbone(8)], ArrivalProfile.uniform(8), max_iters=4)


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
    backbones = [balanced_backbone(8), init_serial(8)] + [
        shape_to_backbone(random_shape(7, 0, rng)) for _ in range(4)
    ]
    samples = synthesize_samples(backbones, ArrivalProfile.uniform(8), max_iters=64)
    # every walk visits the serial start plus one backbone per step
    visited = sum(bb.width - bb.level for bb in backbones)
    assert len(samples) == len(backbones)
    assert calls == {"to_timed_sexpr": visited, "find_candidates": visited}


def test_emit_parse_round_trip() -> None:
    samples = synthesize_samples(
        [balanced_backbone(8), init_serial(8)], ArrivalProfile.uniform(8), max_iters=64
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
