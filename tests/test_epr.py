"""Textual graph dump (EPR) and critical-path rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.epr import EprParseError, critical_path, parse_epr, render_epr
from prefixsynth.graph import Node
from prefixsynth.structures import brent_kung_graph, sklansky_graph
from prefixsynth.timing import ArrivalProfile, DelayModel, graph_arrivals

from oracles import random_shape, shape_to_backbone

EPR_GOLDEN = """\
Bitwidth: 4
Non-input nodes: 3
Max level: 3
Max fanout: 1

Input nodes:
(0,0), tf: [], ntf: [(1,0)]
(1,1), tf: [(1,0)], ntf: []
(2,2), tf: [(2,0)], ntf: []
(3,3), tf: [(3,0)], ntf: []

Non-input nodes:
(3,0),lvl:3,up:(3,3),lp:(2,0),tf:[],ntf: []
(2,0),lvl:2,up:(2,2),lp:(1,0),tf:[],ntf: [(3,0)]
(1,0),lvl:1,up:(1,1),lp:(0,0),tf:[],ntf: [(2,0)]
"""

CRITICAL_GOLDEN = """\
Lvl 0: (0,0), [INPUT] tf: [], ntf: [(1,0)]
Lvl 1:(1,0),up:(1,1),lp:(0,0), tf:[], ntf:[(2,0)]
Lvl 2:(2,0),up:(2,2),lp:(1,0), tf:[], ntf:[(3,0)]
Lvl 3:(3,0),up:(3,3),lp:(2,0), tf:[], ntf:[]

- Lvl efficiency:2/3(theoretical min:2, actual:3)"""


def test_epr_golden_block() -> None:
    assert render_epr(complete(init_serial(4))) == EPR_GOLDEN


def test_epr_parse_round_trip_structures() -> None:
    for g in (sklansky_graph(8), brent_kung_graph(16), complete(init_serial(5))):
        assert parse_epr(render_epr(g)) == g


@given(st.integers(2, 10), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_epr_round_trip_random_backbones(width: int, rng) -> None:
    g = complete(shape_to_backbone(random_shape(width - 1, 0, rng)))
    assert parse_epr(render_epr(g)) == g


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("Bitwidth: 4", "Bitwidth: nope"),
        lambda t: t.replace("up:(3,3)", "up:(9,9)"),
        lambda t: "\n".join(t.splitlines()[2:]),
        lambda t: t.replace("(2,0),lvl:2", "(2,0),lvl:two"),
    ],
)
def test_epr_parse_rejects_mangled_text(mangle) -> None:
    text = render_epr(complete(init_serial(4)))
    with pytest.raises(EprParseError):
        parse_epr(mangle(text))


def test_critical_path_golden_block() -> None:
    g = complete(init_serial(4))
    cp = critical_path(g, (Node(0, 0), Node(1, 0), Node(2, 0), Node(3, 0)))
    assert cp.render() == CRITICAL_GOLDEN
    assert cp.nodes == (Node(0, 0), Node(1, 0), Node(2, 0), Node(3, 0))
    assert (cp.theoretical_min, cp.actual) == (2, 3)


def test_critical_path_efficiency_of_balanced_tree() -> None:
    g = complete(balanced_backbone(4))
    report = graph_arrivals(g, ArrivalProfile.uniform(4), DelayModel())
    cp = critical_path(g, report.critical)
    assert cp.theoretical_min == 2
    assert cp.actual == 2
