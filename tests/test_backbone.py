"""Backbone trees: candidates, regroup rotations, completion, rendering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import (
    Backbone,
    RegroupError,
    balanced_backbone,
    complete,
    find_candidates,
    init_serial,
    regroup,
    to_timed_sexpr,
)
from prefixsynth.graph import Node, deficiency, validate
from prefixsynth.timing import ArrivalProfile, DelayModel

from oracles import (
    all_shapes,
    assert_graph_adds_exhaustive,
    catalan_ref,
    random_shape,
    shape_to_backbone,
)

def test_init_serial_and_balanced_stats() -> None:
    for bb, level in ((init_serial(8), 7), (balanced_backbone(8), 3), (init_serial(2), 1)):
        assert (len(bb.parents), bb.level) == (bb.width - 1, level)


def test_find_candidates_serial_four() -> None:
    assert find_candidates(init_serial(4)) == [
        (Node(3, 3), Node(2, 2)),
        (Node(2, 2), Node(1, 1)),
    ]


def test_find_candidates_balanced_four() -> None:
    # the (3,0) ridge node still admits one rotation; (1,0)'s lower
    # parent is an input so that column is skipped
    assert find_candidates(balanced_backbone(4)) == [
        (Node(3, 2), Node(1, 1))
    ]


def test_find_candidates_width_two_empty() -> None:
    assert find_candidates(init_serial(2)) == []


def test_regroup_serial_four() -> None:
    bb = regroup(init_serial(4), Node(3, 3), Node(2, 2))
    assert bb.nodes == frozenset({Node(1, 0), Node(3, 2), Node(3, 0)})


def test_regroup_rejects_non_adjacent_operands() -> None:
    with pytest.raises(RegroupError):
        regroup(init_serial(4), Node(3, 3), Node(1, 1))


def test_regroup_matches_fanout_figure() -> None:
    # ((7,6),(5,4)) on the right intermediate tree adds (7,4), drops (5,0)
    bb = init_serial(8)
    for a, b in [
        (Node(3, 3), Node(2, 2)),
        (Node(5, 5), Node(4, 4)),
        (Node(7, 7), Node(6, 6)),
    ]:
        bb = regroup(bb, a, b)
    assert Node(5, 0) in bb.nodes and Node(7, 4) not in bb.nodes
    bb2 = regroup(bb, Node(7, 6), Node(5, 4))
    assert Node(7, 4) in bb2.nodes
    assert Node(5, 0) not in bb2.nodes
    assert bb2.nodes == balanced_backbone(8).nodes


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rotation_closure(width: int, rng) -> None:
    bb = shape_to_backbone(random_shape(width - 1, 0, rng))
    for a, b in find_candidates(bb):
        rotated = regroup(bb, a, b)
        assert len(rotated.parents) == width - 1
        assert rotated.root == Node(width - 1, 0)


@pytest.mark.parametrize("width", [3, 4, 5, 6, 7])
def test_reachability_covers_all_trees(width: int) -> None:
    # repeated candidate rotations from the serial chain visit every shape
    seen = {init_serial(width).nodes}
    frontier = [init_serial(width)]
    while frontier:
        bb = frontier.pop()
        for a, b in find_candidates(bb):
            nxt = regroup(bb, a, b)
            if nxt.nodes not in seen:
                seen.add(nxt.nodes)
                frontier.append(nxt)
    assert len(seen) == catalan_ref(width - 1)


def test_complete_serial_inserts_nothing() -> None:
    bb = init_serial(6)
    g = complete(bb)
    assert g.size == 5
    assert validate(g).ok


def test_complete_balanced_four() -> None:
    g = complete(balanced_backbone(4))
    assert g.parents[Node(2, 0)] == (Node(2, 2), Node(1, 0))
    assert g.size == 4
    assert g.depth == 2
    assert deficiency(g) == 0


def test_complete_balanced_eight_counts() -> None:
    bb = balanced_backbone(8)
    g = complete(bb)
    assert g.size - len(bb.parents) == 8 - 1 - bb.level  # 4 auxiliaries
    assert g.size == 11
    # the (6,0) auxiliary must chain through (5,0), one level past the
    # backbone ridge, so this completion carries deficiency 1
    assert g.depth == bb.level + 1
    assert deficiency(g) == 1


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
def test_complete_random_backbones_add_correctly(width: int) -> None:
    for shape in all_shapes(width - 1, 0):
        g = complete(shape_to_backbone(shape))
        assert validate(g).ok
        assert g.is_complete
    # functional spot check on the widest case
    assert_graph_adds_exhaustive(complete(balanced_backbone(width)))


@given(st.integers(2, 64), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_completion_deficiency_is_depth_over_ridge(width: int, rng) -> None:
    # A completed backbone has 2(n-1) - level nodes, so its excess over
    # Snir's size + depth >= 2n - 2 bound is exactly depth - level.
    bb = shape_to_backbone(random_shape(width - 1, 0, rng))
    g = complete(bb)
    assert deficiency(g) == g.depth - bb.level
    assert deficiency(g) >= 0


def test_backbone_edits_never_touch_their_input() -> None:
    serial = init_serial(6)
    before = dict(serial.parents)
    assert regroup(serial, Node(5, 5), Node(4, 4)) != serial
    assert serial.parents == before and serial == init_serial(6)

    balanced = balanced_backbone(8)
    before = dict(balanced.parents)
    assert len(complete(balanced).parents) > len(before)
    assert balanced.parents == before

    parents = dict(init_serial(4).parents)
    bb = Backbone.from_parents(4, parents)
    del parents[Node(2, 0)]
    parents[Node(3, 0)] = (Node(3, 2), Node(1, 0))
    parents[Node(3, 2)] = (Node(3, 3), Node(2, 2))
    assert bb == init_serial(4)
    assert hash(bb) == hash(init_serial(4))


def test_timed_sexpr_unit_step() -> None:
    profile = ArrivalProfile.uniform(4)
    model = DelayModel(node_delay=1.0, margin=0.0)
    text = to_timed_sexpr(balanced_backbone(4), profile, model)
    assert "(3,0) [arrival=2.0000]" in text
