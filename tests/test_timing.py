"""Delay model, arrival profiles, and graph timing propagation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import complete, init_serial
from prefixsynth.graph import Node
from prefixsynth.refine import RefinementError, fanout_opt, level_opt, node_clone
from prefixsynth.structures import serial_graph, sklansky_graph
from prefixsynth.timing import (
    ArrivalProfile,
    DelayModel,
    SweepRow,
    backbone_cost,
    graph_arrivals,
)

from oracles import random_shape, shape_cost, shape_range, shape_to_backbone


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_profile_rejects_non_finite_or_negative_arrival(bad: float) -> None:
    with pytest.raises(ValueError, match="finite and >= 0"):
        ArrivalProfile((0.0, bad))


@given(st.integers(2, 10), st.randoms(use_true_random=False), st.data())
@settings(max_examples=60, deadline=None)
def test_backbone_cost_matches_tree_recursion(width, rng, data) -> None:
    shape = random_shape(width - 1, 0, rng)
    arrivals = [
        data.draw(st.floats(0, 1, allow_nan=False, width=16))
        for _ in range(width)
    ]
    model = DelayModel()
    bb = shape_to_backbone(shape)
    profile = ArrivalProfile(tuple(arrivals))
    got = backbone_cost(bb, profile, model)
    assert got == pytest.approx(shape_cost(shape, arrivals, model.step))

    # Every tree node drives one consumer, so no node pays a fanout penalty
    # and each arrival is exactly its subtree's recursion.
    expected: dict[Node, float] = {}

    def visit(sub) -> None:
        lsb, msb = shape_range(sub)
        expected[Node(msb, lsb)] = shape_cost(sub, arrivals, model.step)
        if not isinstance(sub, int):
            visit(sub[0])
            visit(sub[1])

    visit(shape)
    assert graph_arrivals(bb, profile, model).arrivals == expected


def test_graph_arrivals_serial_chain() -> None:
    # fanout-1 chain: every level adds exactly one step
    model = DelayModel(fanout_penalty=0.0)
    report = graph_arrivals(serial_graph(4), ArrivalProfile.uniform(4), model)
    assert report.arrivals[Node(3, 0)] == pytest.approx(3 * model.step)
    assert report.delay == pytest.approx(3 * model.step)
    # (1,0)'s parents arrive together; the tie goes to the upper one
    assert report.critical == (Node(1, 1), Node(1, 0), Node(2, 0), Node(3, 0))


@given(st.integers(2, 12), st.randoms(use_true_random=False), st.data())
@settings(max_examples=60, deadline=None)
def test_critical_chain_walks_back_from_the_worst_output(width, rng, data) -> None:
    graph = complete(shape_to_backbone(random_shape(width - 1, 0, rng)))
    arrivals = [
        data.draw(st.floats(0, 1, allow_nan=False, width=16)) for _ in range(width)
    ]
    model = DelayModel()
    report = graph_arrivals(graph, ArrivalProfile(tuple(arrivals)), model)
    chain = report.critical
    assert chain[0].is_input and chain[-1].lsb == 0
    worst = max(report.arrivals[n] for n in graph.nodes if n.lsb == 0)
    assert report.arrivals[chain[-1]] == worst
    assert report.delay == worst + model.intercept
    for parent, child in zip(chain, chain[1:]):
        up, lp = graph.parents[child]
        # the parent with the larger arrival, the upper one on ties
        assert parent in (up, lp)
        assert parent == up or report.arrivals[up] < report.arrivals[lp]
        assert parent == lp or report.arrivals[up] >= report.arrivals[lp]


@given(st.integers(2, 12), st.randoms(use_true_random=False), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_arrivals_charge_each_parent_its_fanout(width, rng, data) -> None:
    graph = complete(shape_to_backbone(random_shape(width - 1, 0, rng)))
    for _ in range(rng.randint(0, 12)):
        target = rng.choice(sorted(graph.nodes))
        tool = rng.choice((level_opt, fanout_opt, node_clone))
        args = (target,)
        if tool is fanout_opt:
            if not graph.consumers(target):
                continue
            args += (rng.choice(graph.consumers(target)),)
        try:
            graph = tool(graph, *args)
        except RefinementError:
            pass
    arrivals = [
        data.draw(st.floats(0, 1, allow_nan=False, width=16)) for _ in range(width)
    ]
    model = DelayModel()
    report = graph_arrivals(graph, ArrivalProfile(tuple(arrivals)), model)
    assert report.arrivals.keys() == graph.nodes
    for node in graph.nodes:
        if node.is_input:
            assert report.arrivals[node] == arrivals[node.msb]
            continue
        assert report.arrivals[node] == max(
            report.arrivals[p]
            + model.step
            + model.fanout_penalty * (graph.fanout(p) - 1)
            for p in graph.parents[node]
        )


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


def _row(graph, target: float | None) -> SweepRow:
    profile = ArrivalProfile.uniform(graph.width)
    return SweepRow.from_report(graph, graph_arrivals(graph, profile, DelayModel(), target))


def test_sweep_rows_from_report() -> None:
    rows = [_row(sklansky_graph(8), 0.1), _row(complete(init_serial(8)), 0.5)]
    assert [r.target for r in rows] == [0.1, 0.5]
    assert rows[0].area > rows[1].area  # sklansky pays area for speed
    assert rows[0].delay < rows[1].delay
    for row in rows:
        assert row.slack == pytest.approx(row.target - row.delay)
    free = _row(sklansky_graph(8), None)  # with no target, the delay stands in
    assert (free.target, free.slack) == (free.delay, 0.0)


def test_sweep_row_levels_match_depth() -> None:
    row = _row(sklansky_graph(16), 0.5)
    assert row.level == int(math.log2(16))
    assert row.size == row.area == sklansky_graph(16).size
