"""Local structural refinement tools and their contracts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.graph import Node, simulate, validate
from prefixsynth.policy import (
    Action,
    PolicyError,
    ScriptedPolicy,
    parse_script,
    run_phase2,
)
from prefixsynth.refine import (
    RefinementError,
    fanout_opt,
    level_opt,
    node_clone,
    prune_dead,
)
from prefixsynth.structures import sklansky_graph
from prefixsynth.timing import ArrivalProfile

from oracles import (
    assert_graph_adds_exhaustive,
    random_shape,
    shape_to_backbone,
)


def test_level_opt_serial_four() -> None:
    g = complete(init_serial(4))
    assert g.level(Node(3, 0)) == 3
    g2 = level_opt(g, Node(3, 0))
    assert g2.parents[Node(3, 0)] == (Node(3, 2), Node(1, 0))
    assert Node(3, 2) in g2.nodes
    assert g2.level(Node(3, 0)) == 2
    assert g2.size == g.size + 1
    assert_graph_adds_exhaustive(g2)


def test_level_opt_rejects_at_theoretical_min() -> None:
    g = sklansky_graph(8)
    with pytest.raises(RefinementError):
        level_opt(g, Node(7, 0))  # already at level 3 = ceil(log2(8))


def test_level_opt_rejects_inputs() -> None:
    with pytest.raises(RefinementError):
        level_opt(complete(init_serial(4)), Node(2, 2))


def test_fanout_opt_worked_example() -> None:
    g = complete(balanced_backbone(4))
    assert g.parents[Node(3, 0)] == (Node(3, 2), Node(1, 0))
    assert g.parents[Node(2, 0)] == (Node(2, 2), Node(1, 0))
    assert g.fanout(Node(1, 0)) == 2
    g2 = fanout_opt(g, Node(1, 0), Node(3, 0))
    assert g2.parents[Node(3, 0)] == (Node(3, 1), Node(0, 0))
    assert g2.parents[Node(3, 1)] == (Node(3, 2), Node(1, 1))
    assert g2.fanout(Node(1, 0)) == 1
    assert g2.ntf(Node(1, 0)) == [Node(2, 0)]
    assert_graph_adds_exhaustive(g2)


def test_fanout_opt_rejects_non_consumer() -> None:
    g = complete(balanced_backbone(4))
    with pytest.raises(RefinementError):
        fanout_opt(g, Node(1, 0), Node(2, 2))


def test_fanout_opt_rejects_fanout_one() -> None:
    g = complete(init_serial(4))
    with pytest.raises(RefinementError):
        fanout_opt(g, Node(1, 0), Node(2, 0))


def test_node_clone_splits_consumers() -> None:
    g = complete(balanced_backbone(8))
    target = Node(3, 0)
    consumers = g.consumers(target)
    assert len(consumers) >= 2
    g2 = node_clone(g, target)
    clone = Node(3, 0, 1)
    assert clone in g2.nodes
    assert g2.parents[clone] == g.parents[target]
    moved = len(g2.consumers(clone))
    assert moved == (len(consumers) + 1) // 2
    assert g2.fanout(target) == len(consumers) - moved
    assert_graph_adds_exhaustive(g2)


def test_node_clone_of_clone_increments_instance() -> None:
    g = complete(balanced_backbone(8))
    g2 = node_clone(g, Node(3, 0))
    # give the clone a second consumer so it can be cloned again
    if g2.fanout(Node(3, 0, 1)) >= 2:
        g3 = node_clone(g2, Node(3, 0, 1))
        assert Node(3, 0, 2) in g3.nodes
    else:
        g3 = node_clone(g2, Node(3, 0)) if g2.fanout(Node(3, 0)) >= 2 else g2
    assert validate(g3).ok


def test_node_clone_rejects_low_fanout() -> None:
    g = complete(init_serial(4))
    with pytest.raises(RefinementError):
        node_clone(g, Node(1, 0))


def test_rejection_leaves_graph_unchanged() -> None:
    g = complete(init_serial(4))
    before = (set(g.nodes), dict(g.parents))
    for exc_call in (
        lambda: level_opt(g, Node(2, 2)),
        lambda: fanout_opt(g, Node(1, 0), Node(3, 0)),
        lambda: node_clone(g, Node(1, 0)),
    ):
        with pytest.raises(RefinementError):
            exc_call()
    assert (set(g.nodes), dict(g.parents)) == before


def test_prune_dead_removes_unused_nodes() -> None:
    g = complete(init_serial(4))
    g2 = level_opt(g, Node(3, 0))  # (2,0)'s consumer list shrinks
    pruned = prune_dead(g2)
    assert validate(pruned).ok
    assert pruned.is_complete
    # outputs always survive pruning
    assert all(Node(i, 0) in pruned.nodes for i in range(1, 4))


def test_action_log_round_trip() -> None:
    actions = (
        Action("level_opt", (Node(3, 0),)),
        Action("fanout_opt", (Node(1, 0), Node(3, 0))),
        Action("node_clone", (Node(3, 0),)),
    )
    lines = [a.to_line() for a in actions]
    assert lines[0] == "level_opt (3,0)"
    assert lines[1] == "fanout_opt (1,0) (3,0)"
    assert parse_script("\n".join(lines)) == ((), actions)
    assert Action.from_line("level_opt (3,0)") == actions[0]
    with pytest.raises(PolicyError):
        Action.from_line("melt (3,0)")
    with pytest.raises(PolicyError):
        Action.from_line("fanout_opt (1,0)")  # consumer required


def test_apply_action_dispatch() -> None:
    g = complete(init_serial(4))
    policy = ScriptedPolicy([Action("level_opt", (Node(3, 0),))])
    result = run_phase2(g, 0.0, 1, policy, ArrivalProfile.uniform(4))
    assert result.graph.level(Node(3, 0)) == 2


@given(st.integers(4, 10), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_tool_applications_preserve_function(width: int, rng) -> None:
    g = complete(shape_to_backbone(random_shape(width - 1, 0, rng)))
    applied = 0
    for _ in range(6):
        nodes = [n for n in g.internal_nodes]
        rng.shuffle(nodes)
        tool = rng.choice(["level_opt", "fanout_opt", "node_clone"])
        for node in nodes:
            try:
                if tool == "level_opt":
                    g = level_opt(g, node)
                elif tool == "node_clone":
                    g = node_clone(g, node)
                else:
                    consumers = g.ntf(node)
                    if not consumers:
                        raise RefinementError("no ntf consumer")
                    g = fanout_opt(g, node, rng.choice(consumers))
                applied += 1
                break
            except RefinementError:
                continue
    assert validate(g).ok
    a = rng.randrange(1 << width)
    b = rng.randrange(1 << width)
    s, cout = simulate(g, a, b)
    assert (cout << width) | s == a + b
