"""Backbone text form: round trips and malformed input."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, init_serial
from prefixsynth.graph import Node
from prefixsynth.lang import LangError, backbone_to_text, text_to_backbone

from oracles import random_shape, shape_to_backbone


def _shape_text(shape: tuple | int) -> str:
    """The text of a nested-tuple shape, written low operand first."""
    if isinstance(shape, int):
        return f"i{shape}"
    high, low = shape
    return f"(o {_shape_text(low)} {_shape_text(high)})"


def test_text_format_examples() -> None:
    assert backbone_to_text(balanced_backbone(4)) == "(o (o i0 i1) (o i2 i3))"
    assert backbone_to_text(init_serial(4)) == "(o (o (o i0 i1) i2) i3)"


def test_expr_range_and_width() -> None:
    bb = text_to_backbone(backbone_to_text(balanced_backbone(6)))
    assert (bb.width, bb.root) == (6, Node(5, 0))
    with pytest.raises(LangError, match="start at bit 0"):
        text_to_backbone("(o i3 i4)")


def test_leaf_and_group_ranges_compose() -> None:
    assert text_to_backbone("(o (o i0 i1) (o i2 i3))").parents == {
        Node(3, 0): (Node(3, 2), Node(1, 0)),
        Node(3, 2): (Node(3, 3), Node(2, 2)),
        Node(1, 0): (Node(1, 1), Node(0, 0)),
    }


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(o i0)",
        "(o i0 i1 i2)",
        "(x i0 i1)",
        "(o i0 (o i1 i2)",
        "i0 extra",
    ],
)
def test_malformed_text_rejected(bad: str) -> None:
    with pytest.raises(LangError):
        text_to_backbone(bad)


@given(st.integers(2, 12), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_text_round_trip_random_trees(width: int, rng) -> None:
    text = _shape_text(random_shape(width - 1, 0, rng))
    assert backbone_to_text(text_to_backbone(text)) == text


@given(st.integers(2, 12), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_backbone_round_trip_random_trees(width: int, rng) -> None:
    shape = random_shape(width - 1, 0, rng)
    bb = text_to_backbone(_shape_text(shape))
    assert bb == shape_to_backbone(shape)
    assert text_to_backbone(backbone_to_text(bb)) == bb
    assert bb.width == width


def test_non_contiguous_groups_rejected() -> None:
    with pytest.raises(LangError, match="not adjacent"):
        text_to_backbone("(o (o i0 i1) i3)")
