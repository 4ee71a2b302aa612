"""Core prefix-graph model: node identity, structure checks, simulation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixsynth.graph import (
    GraphError,
    Node,
    PrefixGraph,
    addition_mismatches,
    deficiency,
    exhaustive_addition_check,
    parse_node_token,
    random_addition_check,
    simulate,
    validate,
)
from prefixsynth.structures import (
    brent_kung_graph,
    kogge_stone_graph,
    serial_graph,
    sklansky_graph,
)

from oracles import assert_graph_adds_exhaustive


node_ids = st.tuples(
    st.integers(0, 30), st.integers(0, 30), st.integers(0, 3)
).map(lambda t: Node(max(t[0], t[1]), min(t[0], t[1]), t[2]))


@given(node_ids)
def test_node_token_round_trip(node: Node) -> None:
    assert parse_node_token(node.token()) == node


def test_node_token_format() -> None:
    assert Node(3, 0).token() == "(3,0)"
    assert Node(3, 0, 2).token() == "(3,0)#2"
    assert Node(5, 5).span == 1
    assert Node(5, 5).is_input
    assert not Node(5, 4).is_input
    assert not Node(5, 5, 1).is_input


@pytest.mark.parametrize("token", ["", "(3)", "(a,b)", "(3,0)#", "3,0"])
def test_malformed_tokens_rejected(token: str) -> None:
    with pytest.raises(GraphError):
        parse_node_token(token)


def test_serial_levels_and_consumers() -> None:
    g = serial_graph(4)
    assert g.level(Node(0, 0)) == 0
    assert g.level(Node(1, 0)) == 1
    assert g.level(Node(3, 0)) == 3
    assert g.depth == 3
    # (1,0) feeds only (2,0); it shares no msb with its consumer
    assert g.consumers(Node(1, 0)) == (Node(2, 0),)
    assert g.tf(Node(1, 0)) == []
    assert g.ntf(Node(1, 0)) == [Node(2, 0)]
    # input (2,2) feeds (2,0), which shares msb=2: trivial fanout
    assert g.tf(Node(2, 2)) == [Node(2, 0)]
    assert g.fanout(Node(2, 2)) == 1


def test_structure_queries() -> None:
    g = sklansky_graph(8)
    assert g.is_complete
    assert g.missing_outputs() == []
    assert g.size == len(g.internal_nodes)
    assert validate(g).ok
    partial = PrefixGraph(
        8, parents={Node(7, 6): (Node(7, 7), Node(6, 6))}
    )
    assert not partial.is_complete
    assert 1 in partial.missing_outputs()


def test_validate_reports_bad_parent_ranges() -> None:
    # (3,0) must split as (3,k)+(k-1,0); (3,2)+(2,0) overlaps
    g = PrefixGraph(
        4,
        parents={
            Node(3, 2): (Node(3, 3), Node(2, 2)),
            Node(2, 0): (Node(2, 2), Node(1, 0)),
            Node(1, 0): (Node(1, 1), Node(0, 0)),
            Node(3, 0): (Node(3, 2), Node(2, 0)),
        },
    )
    report = validate(g)
    assert not report.ok
    assert any("(3,0)" in v for v in report.violations)


def test_replace_parents_is_functional_update() -> None:
    g = serial_graph(4)
    g2 = g.replace_parents(
        {Node(3, 2): (Node(3, 3), Node(2, 2)), Node(3, 0): (Node(3, 2), Node(1, 0))}
    )
    assert g.parents[Node(3, 0)] == (Node(3, 3), Node(2, 0))
    assert Node(3, 2) not in g.nodes
    assert g2.parents[Node(3, 0)] == (Node(3, 2), Node(1, 0))
    assert Node(3, 2) in g2.nodes
    assert validate(g2).ok


@given(
    st.integers(2, 10),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_simulate_matches_integer_addition(width: int, data) -> None:
    a = data.draw(st.integers(0, (1 << width) - 1))
    b = data.draw(st.integers(0, (1 << width) - 1))
    s, cout = simulate(sklansky_graph(width), a, b)
    total = a + b
    assert s == total & ((1 << width) - 1)
    assert cout == total >> width


def test_simulate_agrees_with_column_oracle() -> None:
    assert_graph_adds_exhaustive(serial_graph(6))
    for a, b in ((0, 0), (63, 1), (21, 42), (63, 63)):
        s, cout = simulate(serial_graph(6), a, b)
        assert (cout << 6) | s == a + b


def test_deficiency_of_serial_chain_is_zero() -> None:
    # size n-1 plus depth n-1 meets the 2n-2 bound exactly
    for n in (2, 4, 7):
        assert deficiency(serial_graph(n)) == 0


def test_addition_check_helpers() -> None:
    assert exhaustive_addition_check(serial_graph(5)) == []
    assert random_addition_check(sklansky_graph(16), count=2_000, seed=7) == []
    broken = serial_graph(4).replace_parents(
        {Node(3, 0): (Node(3, 2), Node(1, 0))}
    )
    # (3,2) is absent from the node set, so validation fails first
    assert not validate(broken).ok


@pytest.mark.parametrize("width", [65, 128, 256])
@pytest.mark.parametrize("build", [sklansky_graph, kogge_stone_graph, brent_kung_graph])
def test_random_check_accepts_textbook_adders_beyond_64_bits(build, width: int) -> None:
    assert random_addition_check(build(width), count=4_000, seed=width) == []


@pytest.mark.parametrize("width", [65, 128, 256])
def test_random_check_rejects_one_corrupted_parent(width: int) -> None:
    graph = sklansky_graph(width)
    assert graph.parents[Node(3, 0)] == (Node(3, 2), Node(1, 0))
    broken = graph.replace_parents({Node(3, 0): (Node(3, 2), Node(0, 0))})
    # bit 1 no longer reaches (3,0) and every carry above it
    bad = random_addition_check(broken, count=4_000, seed=width)
    assert bad
    for a, b in bad:
        assert 0 <= a < 1 << width and 0 <= b < 1 << width
        s, cout = simulate(broken, a, b)
        assert (cout << width) | s != a + b
    assert addition_mismatches(broken, bad) == bad
    assert addition_mismatches(graph, bad) == []


def test_exhaustive_check_reports_failing_pairs_in_lane_order() -> None:
    broken = serial_graph(4).replace_parents({Node(3, 0): (Node(3, 3), Node(1, 0))})
    bad = exhaustive_addition_check(broken)
    assert len(bad) == 10
    assert bad == sorted(bad)
    want = [
        (a, b) for a in range(16) for b in range(16)
        if (lambda s, c: (c << 4) | s)(*simulate(broken, a, b)) != a + b
    ]
    assert bad == want[:10]
