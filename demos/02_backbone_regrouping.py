"""Walk a serial backbone to the balanced tree with regroup moves.

The backbone is the carry cone of the most significant bit.  A regroup move
rewrites ``(x (y z))`` to ``((x y) z)`` on the ridge, trading depth for a
different association.  Candidate moves are enumerated automatically; applying
the right sequence turns the 8-bit serial chain into the balanced tree.
Each backbone prints as the timed s-expression a phase-1 prompt shows: one
line per node, unindented, with the parentheses giving the nesting.
"""

from __future__ import annotations

from prefixsynth.backbone import (
    balanced_backbone,
    complete,
    find_candidates,
    init_serial,
    regroup,
    to_timed_sexpr,
)
from prefixsynth.graph import Node
from prefixsynth.timing import ArrivalProfile, DelayModel

STEPS = [
    (Node(3, 3), Node(2, 2)),
    (Node(5, 5), Node(4, 4)),
    (Node(7, 7), Node(6, 6)),
    (Node(7, 6), Node(5, 4)),
]


def main() -> None:
    model = DelayModel()
    profile = ArrivalProfile.uniform(8)

    bb = init_serial(8)
    print(f"serial backbone: level {bb.level}")
    print(to_timed_sexpr(bb, profile, model))

    for a, b in STEPS:
        menu = find_candidates(bb)
        print(f"\ncandidates: {[f'{x} {y}' for x, y in menu]}")
        print(f"applying regroup({a}, {b})")
        bb = regroup(bb, a, b)

    print(f"\nfinal backbone: level {bb.level}")
    print(to_timed_sexpr(bb, profile, model))
    assert bb.nodes == balanced_backbone(8).nodes

    graph = complete(bb)
    print(
        f"\ncompleted adder: size {graph.size}, depth {graph.depth}, "
        f"complete={graph.is_complete}"
    )


if __name__ == "__main__":
    main()
