"""Backbone trees: the carry cone of the most significant bit.

A backbone over ``width`` bits is a full binary tree whose leaves are the
inputs ``(i, i)`` and whose root is ``(width-1, 0)``; its internal nodes obey
the same (up, lp) split rule as prefix graphs, so each of the ``width - 1``
internal nodes covers one contiguous bit range.  The *ridge* is the chain of
``(m, 0)`` nodes from the root down the lower-parent edges: exactly the carry
outputs the tree already provides.  ``complete`` grows a backbone into a full
adder by adding the remaining outputs as auxiliary nodes.

``regroup`` is the single structural move of the search: one associativity
rotation at a ridge node.  It adds ``(a.msb, b.lsb)``, deletes the ridge node
``(b.msb, 0)``, and re-parents ``(a.msb, 0)``; repeated regroups starting
from the serial chain reach every tree shape.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graph import Node, PrefixGraph
from .timing import ArrivalProfile, DelayModel, graph_arrivals

__all__ = [
    "Backbone",
    "BackboneError",
    "RegroupError",
    "init_serial",
    "balanced_backbone",
    "find_candidates",
    "regroup",
    "complete",
    "to_timed_sexpr",
]


class BackboneError(Exception):
    """Structural problem with a backbone tree."""


class RegroupError(BackboneError):
    """A regroup request that does not describe a legal rotation."""


@dataclass(frozen=True)
class Backbone:
    """Immutable backbone: width plus the parent map of internal nodes.

    ``parents`` has the shape of :attr:`PrefixGraph.parents`; it is never
    edited once the backbone is built.
    """

    width: int
    parents: dict[Node, tuple[Node, Node]]

    @staticmethod
    def from_parents(
        width: int, parents: dict[Node, tuple[Node, Node]]
    ) -> Backbone:
        bb = Backbone(width, dict(parents))
        bb._check()
        return bb

    def __hash__(self) -> int:
        return hash((self.width, frozenset(self.parents.items())))

    def _check(self) -> None:
        parents = self.parents
        if self.width < 2:
            raise BackboneError(f"width must be >= 2, got {self.width}")
        if len(parents) != self.width - 1:
            raise BackboneError(
                f"expected {self.width - 1} internal nodes, got {len(parents)}"
            )
        if self.root not in parents:
            raise BackboneError(f"missing root {self.root.token()}")
        used: dict[Node, int] = {}
        for node, (up, lp) in parents.items():
            if node.instance != 0 or node.span < 2:
                raise BackboneError(f"illegal internal node {node.token()}")
            if up.msb != node.msb or not (node.lsb < up.lsb <= node.msb):
                raise BackboneError(f"{node.token()}: bad upper parent {up.token()}")
            if lp.msb != up.lsb - 1 or lp.lsb != node.lsb:
                raise BackboneError(f"{node.token()}: bad lower parent {lp.token()}")
            for p in (up, lp):
                if p.span > 1 and p not in parents:
                    raise BackboneError(
                        f"{node.token()}: parent {p.token()} is not a tree node"
                    )
                used[p] = used.get(p, 0) + 1
        for p, count in used.items():
            if count != 1:
                raise BackboneError(f"{p.token()} consumed {count} times")

    @property
    def root(self) -> Node:
        return Node(self.width - 1, 0)

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self.parents)

    def ridge(self) -> list[Node]:
        """Ridge nodes from the root downward: the existing carry outputs."""
        out: list[Node] = []
        node = self.root
        while node.span > 1:
            out.append(node)
            node = self.parents[node][1]
        return out

    @property
    def level(self) -> int:
        """Ridge length: how many carry outputs the tree already provides."""
        return len(self.ridge())


def init_serial(width: int) -> Backbone:
    """The ripple chain: every regroup search starts here."""
    if width < 2:
        raise BackboneError(f"width must be >= 2, got {width}")
    parents = {
        Node(m, 0): (Node(m, m), Node(m - 1, 0)) for m in range(1, width)
    }
    return Backbone.from_parents(width, parents)


def balanced_backbone(width: int) -> Backbone:
    """Recursive midpoint splits; depth ceil(log2(width))."""
    if width < 2:
        raise BackboneError(f"width must be >= 2, got {width}")
    parents: dict[Node, tuple[Node, Node]] = {}

    def build(lo: int, hi: int) -> Node:
        if lo == hi:
            return Node(lo, lo)
        mid = (lo + hi + 1) // 2
        upper = build(mid, hi)
        lower = build(lo, mid - 1)
        parents[Node(hi, lo)] = (upper, lower)
        return Node(hi, lo)

    build(0, width - 1)
    return Backbone.from_parents(width, parents)


def find_candidates(bb: Backbone) -> list[tuple[Node, Node]]:
    """Enumerate legal regroup pairs, highest column first.

    For each ridge node ``(i, 0)`` the pair is ``a = up((i, 0))`` and
    ``b = up((j, 0))`` where ``(j, 0)`` is the next ridge node down
    (``j = a.lsb - 1``); the column is skipped when that neighbour is the
    terminal leaf ``(0, 0)``.  Every returned pair satisfies the regroup
    preconditions against ``bb``.
    """
    parents = bb.parents
    out: list[tuple[Node, Node]] = []
    for i in range(bb.width - 1, 0, -1):
        ridge_node = Node(i, 0)
        if ridge_node not in parents:
            continue
        a, lower = parents[ridge_node]
        if lower.span == 1:
            continue
        b = parents[lower][0]
        if Node(a.msb, b.lsb) not in parents:
            out.append((a, b))
    return out


def regroup(bb: Backbone, a: Node, b: Node) -> Backbone:
    """Rotate at ridge node ``(a.msb, 0)``: add ``(a.msb, b.lsb)``, drop
    ``(b.msb, 0)``.

    Raises :class:`RegroupError` (leaving ``bb`` untouched) when the pair
    does not describe a legal rotation.
    """
    parents = bb.parents
    if b.msb != a.lsb - 1:
        raise RegroupError(f"b.msb != a.lsb-1 for a={a.token()}, b={b.token()}")
    if a.lsb <= 0 or b.lsb <= 0:
        raise RegroupError("regroup operands must not touch bit 0")
    site = Node(a.msb, 0)
    removed = Node(b.msb, 0)
    if site not in parents:
        raise RegroupError(f"rotation site {site.token()} is not a tree node")
    if parents[site][0] != a:
        raise RegroupError(f"{a.token()} is not the upper parent of {site.token()}")
    if removed not in parents:
        raise RegroupError(f"{removed.token()} is not a tree node")
    if parents[removed][0] != b:
        raise RegroupError(f"{b.token()} is not the upper parent of {removed.token()}")
    created = Node(a.msb, b.lsb)
    if created in parents:
        raise RegroupError(f"{created.token()} already exists")

    # The rotation keeps every tree invariant, so the result needs no check.
    rest = parents[removed][1]  # (b.lsb - 1, 0)
    parents = dict(parents)
    del parents[removed]
    parents[created] = (a, b)
    parents[site] = (created, rest)
    return Backbone(bb.width, parents)


def complete(bb: Backbone) -> PrefixGraph:
    """Grow the backbone into a complete prefix adder.

    Missing outputs are added lowest bit first; each auxiliary node
    ``(i, 0)`` takes as upper parent the widest existing node in column
    ``i`` (minimal lsb, the column top), so exactly
    ``width - 1 - level`` nodes are inserted.
    """
    parents = dict(bb.parents)
    column_top: dict[int, Node] = {i: Node(i, i) for i in range(bb.width)}
    for node in bb.parents:
        top = column_top[node.msb]
        if node.lsb < top.lsb:
            column_top[node.msb] = node
    for i in range(1, bb.width):
        if Node(i, 0) in parents:
            continue
        a = column_top[i]
        parents[Node(i, 0)] = (a, Node(a.lsb - 1, 0))
    return PrefixGraph(bb.width, parents)


def to_timed_sexpr(
    bb: Backbone, profile: ArrivalProfile, model: DelayModel
) -> str:
    """Render the backbone as the timing-annotated s-expression block.

    Higher-significance operands are listed first.  A group that is a first
    operand closes on its own line; trailing groups collapse their closing
    parentheses onto the final leaf.
    """
    arrivals = graph_arrivals(bb, profile, model).arrivals
    parents = bb.parents
    lines: list[str] = []

    def emit(node: Node, indent: int, suffix: str, is_root: bool) -> None:
        pad = " " * indent
        if node.span == 1:
            lines.append(f"{pad}input {node.token()} [arrival={arrivals[node]:.4f}]{suffix}")
            return
        head = f"{pad}{node.token()} [arrival={arrivals[node]:.4f}]"
        lines.append(head if is_root else head + " =")
        lines.append(f"{pad}group(")
        up, lp = parents[node]
        emit(up, indent + 2, ",", False)
        if suffix == ",":
            emit(lp, indent + 2, "", False)
            lines.append(f"{pad}),")
        else:
            emit(lp, indent + 2, ")" + suffix, False)

    emit(bb.root, 0, "", True)
    return "\n".join(lines)
