"""Equality saturation, extraction, and the regroup walk to extracted trees."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixsynth.backbone import balanced_backbone, complete, init_serial
from prefixsynth.esat import (
    catalan,
    count_trees,
    design_space_log10,
    extract_optimal,
    extract_perturbed,
    filter_low_deficiency,
    saturate,
)
from prefixsynth.graph import Node
from prefixsynth.lang import text_to_backbone
from prefixsynth.policy import (
    Action,
    BackboneWalkPolicy,
    Phase1Result,
    PolicyError,
    RegroupTrace,
    parse_script,
    run_phase1,
)
from prefixsynth.timing import ArrivalProfile, DelayModel, backbone_cost

from oracles import (
    all_shapes,
    catalan_ref,
    extract_ref,
    random_shape,
    saturate_ref,
    shape_cost,
    shape_to_backbone,
    walk_ref,
)


@pytest.mark.parametrize("width", range(2, 9))
def test_closed_form_matches_generic_saturation(width: int) -> None:
    trees, enodes = saturate_ref(width)
    eg = saturate(init_serial(width))
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
    eg = saturate(init_serial(width))
    assert count_trees(eg) == count == catalan_ref(width - 1)


def test_saturation_start_point_irrelevant() -> None:
    from_serial = saturate(init_serial(6))
    from_balanced = saturate(balanced_backbone(6))
    assert count_trees(from_serial) == count_trees(from_balanced)


@given(st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extraction_beats_brute_force_never(width: int, seed: int) -> None:
    profile = ArrivalProfile.randomized(width, seed=seed, high=0.2)
    model = DelayModel()
    eg = saturate(init_serial(width))
    got = backbone_cost(extract_optimal(eg, profile, model), profile, model)
    best = min(
        shape_cost(s, list(profile.times), model.step)
        for s in all_shapes(width - 1, 0)
    )
    assert got == pytest.approx(best, abs=1e-12)


def test_extraction_deterministic() -> None:
    profile = ArrivalProfile.randomized(8, seed=11, high=0.1)
    model = DelayModel()
    eg = saturate(init_serial(8))
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
    eg = saturate(init_serial(width))
    got = extract_optimal(eg, ArrivalProfile.uniform(width), DelayModel())
    assert got == text_to_backbone(text)


MODELS = [DelayModel(), DelayModel(node_delay=0.1, margin=0.0)]


@given(
    st.integers(2, 40),
    st.sampled_from([None, "uniform", "lsb-first", "random"]),
    st.lists(st.integers(0, 6), min_size=40, max_size=40),
    st.sampled_from(MODELS),
    st.integers(0, 2**32),
    st.sampled_from([0.0, 0.25, 1.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_extraction_matches_reference_dp(
    width: int,
    preset: str | None,
    levels: list[int],
    model: DelayModel,
    seed: int,
    eps: float,
) -> None:
    # preset None draws arrivals on a half-step grid, so costs tie often
    if preset is None:
        profile = ArrivalProfile(tuple(g * model.step / 2 for g in levels[:width]))
    else:
        profile = ArrivalProfile.preset(preset, width, model, seed=seed)
    times = list(profile.times)
    eg = saturate(init_serial(width))
    assert extract_optimal(eg, profile, model) == extract_ref(times, model.step)
    assert extract_perturbed(
        eg, profile, model, seed=seed, eps_scale=eps
    ) == extract_ref(times, model.step, seed=seed, bound=eps * model.step)


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("preset", ["uniform", "lsb-first", "random"])
def test_wide_extraction_matches_reference_dp(width: int, preset: str) -> None:
    model = DelayModel()
    profile = ArrivalProfile.preset(preset, width, model, seed=width)
    got = extract_optimal(saturate(init_serial(width)), profile, model)
    assert got == extract_ref(list(profile.times), model.step)


def test_extraction_tie_break_reads_unrounded_costs() -> None:
    # the root's splits 3 and 4 tie; their high operands cost 0.25 and one
    # ulp less, which both round to 0.285 once a step is added, so only the
    # unrounded costs pick split 4
    times = (0.0, 0.18, 0.0, 0.18, 0.0, 0.17999999999999997, 0.0)
    model = DelayModel()
    got = extract_optimal(saturate(init_serial(7)), ArrivalProfile(times), model)
    assert got == extract_ref(times, model.step)
    assert got == text_to_backbone("(o (o (o i0 i1) (o i2 i3)) (o (o i4 i5) i6))")


@given(
    st.integers(2, 64),
    st.sampled_from([None, "uniform", "lsb-first", "random"]),
    st.lists(st.integers(0, 6), min_size=64, max_size=64),
    st.sampled_from(MODELS),
    st.integers(0, 2**32),
)
@example(256, "uniform", [0] * 64, DelayModel(), 256)
@example(256, "lsb-first", [0] * 64, DelayModel(), 256)
@example(256, "random", [0] * 64, DelayModel(), 256)
@settings(max_examples=60, deadline=None)
def test_perturbed_extraction_zero_eps_is_optimal(
    width: int, preset: str | None, levels: list[int], model: DelayModel, seed: int
) -> None:
    # zero noise keeps the full scan, so this checks optimal extraction
    # against it at widths the reference DP is too slow for
    if preset is None:
        profile = ArrivalProfile(tuple(g * model.step / 2 for g in levels[:width]))
    else:
        profile = ArrivalProfile.preset(preset, width, model, seed=seed)
    eg = saturate(init_serial(width))
    assert extract_perturbed(
        eg, profile, model, seed=seed, eps_scale=0.0
    ) == extract_optimal(eg, profile, model)


def test_perturbed_extraction_seeded_and_diverse() -> None:
    profile = ArrivalProfile.uniform(8)
    model = DelayModel()
    eg = saturate(init_serial(8))
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


def _walk(target) -> Phase1Result:
    """Phase 1 walked to ``target`` with a budget of the walk's step count
    plus one, with the check that it finishes there after exactly the
    reference steps."""
    width = target.width
    result = run_phase1(
        width, ArrivalProfile.uniform(width), None, width - target.level,
        BackboneWalkPolicy(target),
    )
    assert result.finished
    assert result.backbone == target
    steps = [((a.msb, a.lsb), (b.msb, b.lsb)) for a, b in (s.args for s in result.trace.steps)]
    assert steps == walk_ref(target)
    assert len(steps) == width - 1 - target.level
    return result


def test_walk_balanced_eight() -> None:
    trace = _walk(balanced_backbone(8)).trace
    assert len(trace.steps) == 4
    assert trace.steps[-1] == Action("regroup", (Node(7, 6), Node(5, 4)))


@pytest.mark.parametrize("width", range(2, 9))
def test_walk_exhaustive_small(width: int) -> None:
    for shape in all_shapes(width - 1, 0):
        _walk(shape_to_backbone(shape))


@given(st.integers(2, 40), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_walk_random_targets(width: int, rng) -> None:
    _walk(shape_to_backbone(random_shape(width - 1, 0, rng)))


def test_trace_text_round_trip() -> None:
    trace = _walk(balanced_backbone(8)).trace
    text = "".join(step.to_line() + "\n" for step in trace.steps)
    assert text.splitlines()[-1] == "regroup 7 6 5 4"
    steps, _ = parse_script(text)
    assert RegroupTrace(8, steps) == trace
    with pytest.raises(PolicyError):
        parse_script("regroup 1 2\n")
    with pytest.raises(PolicyError):
        parse_script("rotate 1 1 0 0\n")


def test_trace_text_stops_at_finish() -> None:
    text = "regroup 3 3 2 2\nfinish2\nregroup 9 9 8 8\n"
    assert parse_script(text) == ((Action("regroup", (Node(3, 3), Node(2, 2))),), ())


def test_filter_low_deficiency_threshold_zero() -> None:
    shapes = [shape_to_backbone(s) for s in all_shapes(7, 0)]
    kept = filter_low_deficiency(shapes, threshold=0)
    assert kept  # the serial chain always qualifies
    for bb in kept:
        assert complete(bb).depth == bb.level
    # balanced-8 completes one level past its ridge, so it is dropped
    assert balanced_backbone(8) not in kept
    relaxed = filter_low_deficiency(shapes, threshold=1)
    assert all(bb in relaxed for bb in kept)
    assert balanced_backbone(8) in relaxed
    with pytest.raises(ValueError):
        filter_low_deficiency(shapes, threshold=-1)
