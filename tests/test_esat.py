"""Equality saturation, extraction, and regroup-trace derivation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.esat import (
    RegroupTrace,
    TraceError,
    catalan,
    count_trees,
    derive_trace,
    design_space_log10,
    extract_optimal,
    extract_perturbed,
    filter_low_deficiency,
    saturate,
)
from prefixsynth.graph import Node
from prefixsynth.lang import backbone_to_expr, expr_to_backbone, text_to_expr
from prefixsynth.timing import ArrivalProfile, DelayModel, backbone_cost

from oracles import (
    all_shapes,
    catalan_ref,
    random_shape,
    saturate_ref,
    shape_cost,
    shape_to_expr,
)


@pytest.mark.parametrize("width", range(2, 9))
def test_closed_form_matches_generic_saturation(width: int) -> None:
    trees, enodes = saturate_ref(width)
    eg = saturate(backbone_to_expr(init_serial(width)))
    classes = list(eg.classes())
    assert classes == sorted(classes, key=lambda c: (c[1] - c[0], c[0]))
    assert set(classes) == {(lo, hi) for lo, hi, _ in enodes} | {
        (b, b) for b in range(width)
    }
    assert {(lo, hi, k) for lo, hi in classes for k in eg.splits(lo, hi)} == enodes
    assert eg.n_classes == len(classes)
    assert eg.n_enodes == len(enodes) + width
    assert count_trees(eg) == len(trees)


@pytest.mark.parametrize(
    "width,count", [(3, 2), (4, 5), (5, 14), (6, 42), (7, 132), (8, 429)]
)
def test_saturation_tree_counts(width: int, count: int) -> None:
    eg = saturate(backbone_to_expr(init_serial(width)))
    assert eg.saturated
    assert count_trees(eg) == count == catalan_ref(width - 1)


def test_saturation_start_point_irrelevant() -> None:
    from_serial = saturate(backbone_to_expr(init_serial(6)))
    from_balanced = saturate(backbone_to_expr(balanced_backbone(6)))
    assert count_trees(from_serial) == count_trees(from_balanced)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extraction_beats_brute_force_never(width: int, seed: int) -> None:
    profile = ArrivalProfile.randomized(width, seed=seed, high=0.2)
    model = DelayModel()
    eg = saturate(backbone_to_expr(init_serial(width)))
    got = backbone_cost(extract_optimal(eg, profile, model), profile, model)
    best = min(
        shape_cost(s, list(profile.times), model.step)
        for s in all_shapes(width - 1, 0)
    )
    assert got == pytest.approx(best, abs=1e-12)


def test_extraction_deterministic() -> None:
    profile = ArrivalProfile.randomized(8, seed=11, high=0.1)
    model = DelayModel()
    eg = saturate(backbone_to_expr(init_serial(8)))
    assert extract_optimal(eg, profile, model) == extract_optimal(
        eg, profile, model
    )


@pytest.mark.parametrize(
    "width,text",
    [
        # every split of [0, 4] costs 3 steps; split 4 has the cheapest high operand
        (5, "(o (o (o i0 i1) (o i2 i3)) i4)"),
        # splits 3 and 4 of [0, 6] tie on cost and high-operand cost; 3 is smaller
        (7, "(o (o (o i0 i1) i2) (o (o i3 i4) (o i5 i6)))"),
    ],
)
def test_extraction_tie_break_uniform(width: int, text: str) -> None:
    eg = saturate(backbone_to_expr(init_serial(width)))
    got = extract_optimal(eg, ArrivalProfile.uniform(width), DelayModel())
    assert got == text_to_expr(text)


def test_perturbed_extraction_zero_eps_is_optimal() -> None:
    profile = ArrivalProfile.randomized(8, seed=5, high=0.1)
    model = DelayModel()
    eg = saturate(backbone_to_expr(init_serial(8)))
    for seed in range(5):
        assert extract_perturbed(
            eg, profile, model, seed=seed, eps_scale=0.0
        ) == extract_optimal(eg, profile, model)


def test_perturbed_extraction_seeded_and_diverse() -> None:
    profile = ArrivalProfile.uniform(8)
    model = DelayModel()
    eg = saturate(backbone_to_expr(init_serial(8)))
    one = extract_perturbed(eg, profile, model, seed=3, eps_scale=2.0)
    two = extract_perturbed(eg, profile, model, seed=3, eps_scale=2.0)
    assert one == two
    distinct = {
        extract_perturbed(eg, profile, model, seed=s, eps_scale=2.0)
        for s in range(12)
    }
    assert len(distinct) > 1
    with pytest.raises(ValueError):
        extract_perturbed(eg, profile, model, seed=0, eps_scale=-1.0)


def test_design_space_magnitudes() -> None:
    total, single = design_space_log10(16)
    assert 48.0 <= total <= 50.0
    assert 6.0 <= single <= 7.1
    assert catalan(15) == catalan_ref(15) == 9_694_845


def test_derive_trace_balanced_eight() -> None:
    trace = derive_trace(balanced_backbone(8))
    assert len(trace.steps) == 4
    assert trace.steps[-1] == (Node(7, 6), Node(5, 4))
    assert trace.replay().nodes == balanced_backbone(8).nodes


@pytest.mark.parametrize("width", [2, 3, 4, 5, 6])
def test_derive_trace_exhaustive_small(width: int) -> None:
    serial_nodes = init_serial(width).nodes
    for shape in all_shapes(width - 1, 0):
        target = expr_to_backbone(shape_to_expr(shape))
        trace = derive_trace(target)
        assert trace.replay().nodes == target.nodes
        assert len(trace.steps) == len(target.nodes - serial_nodes)


@given(st.integers(2, 12), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_derive_trace_random_targets(width: int, rng) -> None:
    target = expr_to_backbone(shape_to_expr(random_shape(width - 1, 0, rng)))
    assert derive_trace(target).replay().nodes == target.nodes


def test_trace_text_round_trip() -> None:
    trace = derive_trace(balanced_backbone(8))
    text = trace.to_text()
    assert text.splitlines()[-1] == "regroup 7 6 5 4"
    again = RegroupTrace.from_text(8, text)
    assert again == trace
    with pytest.raises(TraceError):
        RegroupTrace.from_text(8, "regroup 1 2\n")
    with pytest.raises(TraceError):
        RegroupTrace.from_text(8, "rotate 1 1 0 0\n")


def test_trace_text_stops_at_finish() -> None:
    text = "regroup 3 3 2 2\nfinish1\nregroup 9 9 8 8\n"
    trace = RegroupTrace.from_text(4, text)
    assert trace.steps == ((Node(3, 3), Node(2, 2)),)


def test_filter_low_deficiency_threshold_zero() -> None:
    shapes = [shape_to_expr(s) for s in all_shapes(7, 0)]
    kept = filter_low_deficiency(shapes, threshold=0)
    assert kept  # the serial chain always qualifies
    for expr in kept:
        bb = expr_to_backbone(expr)
        assert complete(bb).depth == bb.level
    # balanced-8 completes one level past its ridge, so it is dropped
    assert backbone_to_expr(balanced_backbone(8)) not in kept
    relaxed = filter_low_deficiency(shapes, threshold=1)
    assert set(map(id, kept)) <= set(map(id, relaxed)) or len(kept) <= len(relaxed)
    with pytest.raises(ValueError):
        filter_low_deficiency(shapes, threshold=-1)
