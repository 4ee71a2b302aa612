"""Delay model, arrival profiles, and graph timing propagation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.graph import Node
from prefixsynth.structures import serial_graph, sklansky_graph
from prefixsynth.timing import (
    ArrivalProfile,
    DelayModel,
    backbone_cost,
    graph_arrivals,
    pareto_sweep,
)

from oracles import random_shape, shape_cost, shape_to_expr
from prefixsynth.lang import expr_to_backbone


def test_delay_model_defaults() -> None:
    m = DelayModel()
    assert m.step == pytest.approx(0.035)
    with pytest.raises(ValueError):
        DelayModel(node_delay=-1.0)


def test_profile_presets() -> None:
    model = DelayModel()
    assert ArrivalProfile.uniform(4).times == (0.0, 0.0, 0.0, 0.0)
    lsb = ArrivalProfile.preset("lsb-first", 8, model)
    assert lsb.times[:4] == (0.0,) * 4
    assert lsb.times[4:] == (4 * model.step,) * 4
    r1 = ArrivalProfile.preset("random", 8, model, seed=1)
    r2 = ArrivalProfile.preset("random", 8, model, seed=1)
    assert r1 == r2
    with pytest.raises(ValueError):
        ArrivalProfile.preset("bogus", 8, model)


def test_profile_text_round_trip() -> None:
    p = ArrivalProfile((0.0, 0.125, 0.3333, 0.05))
    assert ArrivalProfile.from_text(p.to_text()).times == pytest.approx(
        (0.0, 0.125, 0.3333, 0.05), abs=1e-4
    )
    with pytest.raises(ValueError):
        ArrivalProfile.from_text("0, 0.1\n2, 0.2\n")  # gap at bit 1


@given(st.integers(2, 10), st.randoms(use_true_random=False), st.data())
@settings(max_examples=60, deadline=None)
def test_backbone_cost_matches_tree_recursion(width, rng, data) -> None:
    shape = random_shape(width - 1, 0, rng)
    arrivals = [
        data.draw(st.floats(0, 1, allow_nan=False, width=16))
        for _ in range(width)
    ]
    model = DelayModel()
    got = backbone_cost(
        expr_to_backbone(shape_to_expr(shape)),
        ArrivalProfile(tuple(arrivals)),
        model,
    )
    assert got == pytest.approx(shape_cost(shape, arrivals, model.step))


def test_backbone_cost_accepts_expressions() -> None:
    model = DelayModel()
    prof = ArrivalProfile.uniform(4)
    bb = balanced_backbone(4)
    from prefixsynth.lang import backbone_to_expr

    assert backbone_cost(bb, prof, model) == pytest.approx(
        backbone_cost(backbone_to_expr(bb), prof, model)
    )


def test_graph_arrivals_serial_chain() -> None:
    # fanout-1 chain: every level adds exactly one step
    model = DelayModel(fanout_penalty=0.0)
    report = graph_arrivals(serial_graph(4), ArrivalProfile.uniform(4), model)
    assert report.arrival(Node(3, 0)) == pytest.approx(3 * model.step)
    assert report.delay == pytest.approx(3 * model.step)
    assert report.critical_end == Node(3, 0)
    assert report.critical_start.is_input


def test_graph_arrivals_fanout_penalty() -> None:
    model = DelayModel()
    g = sklansky_graph(8)
    base = graph_arrivals(
        g, ArrivalProfile.uniform(8), DelayModel(fanout_penalty=0.0)
    )
    loaded = graph_arrivals(g, ArrivalProfile.uniform(8), model)
    # sklansky has a fanout-4 node on the worst path
    assert loaded.delay > base.delay


def test_graph_arrivals_slack_sign() -> None:
    model = DelayModel()
    g = serial_graph(8)
    tight = graph_arrivals(g, ArrivalProfile.uniform(8), model, target=0.1)
    loose = graph_arrivals(g, ArrivalProfile.uniform(8), model, target=1.0)
    assert tight.slack is not None and tight.slack < 0
    assert loose.slack is not None and loose.slack > 0
    assert tight.delay == pytest.approx(loose.delay)


def test_graph_arrivals_intercept_shifts_delay() -> None:
    g = serial_graph(4)
    prof = ArrivalProfile.uniform(4)
    d0 = graph_arrivals(g, prof, DelayModel()).delay
    d1 = graph_arrivals(g, prof, DelayModel(intercept=0.25)).delay
    assert d1 == pytest.approx(d0 + 0.25)


def test_graph_arrivals_rejects_profile_mismatch() -> None:
    with pytest.raises(ValueError):
        graph_arrivals(serial_graph(4), ArrivalProfile.uniform(5), DelayModel())


def test_pareto_sweep_rows() -> None:
    model = DelayModel()
    prof = ArrivalProfile.uniform(8)

    def synth(target: float):
        return complete(init_serial(8)) if target > 0.3 else sklansky_graph(8)

    rows = pareto_sweep(synth, [0.1, 0.5], prof, model)
    assert [r.target for r in rows] == [0.1, 0.5]
    assert rows[0].area > rows[1].area  # sklansky pays area for speed
    assert rows[0].delay < rows[1].delay
    for row in rows:
        assert row.slack == pytest.approx(row.target - row.delay)
    with pytest.raises(ValueError):
        pareto_sweep(synth, [], prof, model)


def test_sweep_row_levels_match_depth() -> None:
    rows = pareto_sweep(
        lambda _t: sklansky_graph(16),
        [0.5],
        ArrivalProfile.uniform(16),
        DelayModel(),
    )
    assert rows[0].level == int(math.log2(16))
    assert rows[0].size == sklansky_graph(16).size
