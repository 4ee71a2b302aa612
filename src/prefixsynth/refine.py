"""Local structural rewrites for complete prefix graphs.

Three tools, each returning a fresh graph and raising
:class:`RefinementError` when its precondition fails:

* :func:`level_opt` re-splits a node to lower its level,
* :func:`fanout_opt` moves one consumer of a loaded node onto an
  alternative split,
* :func:`node_clone` duplicates a node and hands it half the consumers.

All three preserve the computed function; they trade area, depth, and
fanout against each other.
"""
from __future__ import annotations

from .graph import Node, PrefixGraph

__all__ = [
    "RefinementError",
    "level_opt",
    "fanout_opt",
    "node_clone",
    "prune_dead",
]


class RefinementError(Exception):
    """The requested rewrite does not apply at this site."""


_Plan = tuple[Node, dict[Node, tuple[Node, Node]], int]


def _balanced_plan(
    graph: PrefixGraph, msb: int, lsb: int, memo: dict[tuple[int, int], _Plan]
) -> _Plan:
    """Reuse the ``(msb, lsb)`` node if present, else plan a balanced
    construction of it.  Returns the node, the parent entries to insert,
    and the node's level in the edited graph.

    ``memo`` caches plans by bit range for one graph; the returned insert
    maps are shared and must not be mutated.
    """
    plan = memo.get((msb, lsb))
    if plan is not None:
        return plan
    node = Node(msb, lsb)
    if node in graph.nodes:
        plan = node, {}, graph.level(node)
    else:
        mid = (msb + lsb + 1) // 2
        up, up_ins, up_lvl = _balanced_plan(graph, msb, mid, memo)
        lp, lp_ins, lp_lvl = _balanced_plan(graph, mid - 1, lsb, memo)
        plan = node, {**up_ins, **lp_ins, node: (up, lp)}, max(up_lvl, lp_lvl) + 1
    memo[msb, lsb] = plan
    return plan


def level_opt(graph: PrefixGraph, target: Node) -> PrefixGraph:
    """Re-split ``target`` on the split point that minimizes its level.

    Missing operands are built by balanced bisection.  Raises unless the
    target's level strictly decreases.
    """
    if target not in graph.nodes:
        raise RefinementError(f"{target.token()} is not in the graph")
    if target.is_input:
        raise RefinementError("cannot re-split an input")
    current = graph.level(target)
    best: tuple[int, int] | None = None
    best_plan: tuple[Node, Node, dict[Node, tuple[Node, Node]]] | None = None
    memo: dict[tuple[int, int], _Plan] = {}
    for k in range(target.lsb + 1, target.msb + 1):
        up, up_ins, up_lvl = _balanced_plan(graph, target.msb, k, memo)
        lp, lp_ins, lp_lvl = _balanced_plan(graph, k - 1, target.lsb, memo)
        key = (max(up_lvl, lp_lvl) + 1, -k)
        if best is None or key < best:
            best = key
            best_plan = (up, lp, {**up_ins, **lp_ins})
    assert best is not None and best_plan is not None
    if best[0] >= current:
        raise RefinementError(
            f"no split lowers the level of {target.token()} (currently {current})"
        )
    up, lp, inserts = best_plan
    return graph.replace_parents({**inserts, target: (up, lp)})


def fanout_opt(graph: PrefixGraph, target: Node, consumer: Node) -> PrefixGraph:
    """Re-split ``consumer`` so it no longer reads ``target``.

    Scans split points in ascending order, requiring the lower operand to
    already exist and allowing at most one inserted node for the upper
    operand (built between existing balanced-split operands).
    """
    if target not in graph.nodes:
        raise RefinementError(f"{target.token()} is not in the graph")
    if consumer not in graph.parents:
        raise RefinementError(f"{consumer.token()} has no parents to rewrite")
    up0, lp0 = graph.parents[consumer]
    if target not in (up0, lp0):
        raise RefinementError(
            f"{consumer.token()} does not consume {target.token()}"
        )
    if graph.fanout(target) < 2:
        raise RefinementError(
            f"{target.token()} has fanout {graph.fanout(target)}; nothing to relieve"
        )
    split = up0.lsb
    for k in range(consumer.lsb + 1, consumer.msb + 1):
        if k == split:
            continue
        lower = Node(k - 1, consumer.lsb)
        if lower not in graph.nodes:
            continue
        upper = Node(consumer.msb, k)
        if upper in graph.nodes:
            return graph.replace_parents({consumer: (upper, lower)})
        mid = (consumer.msb + k + 1) // 2
        sub_up, sub_lp = Node(consumer.msb, mid), Node(mid - 1, k)
        if sub_up in graph.nodes and sub_lp in graph.nodes:
            return graph.replace_parents(
                {upper: (sub_up, sub_lp), consumer: (upper, lower)}
            )
    raise RefinementError(
        f"no alternative split frees {consumer.token()} from {target.token()}"
    )


def node_clone(graph: PrefixGraph, target: Node) -> PrefixGraph:
    """Duplicate ``target`` and move the upper half of its consumers
    (by node order) onto the clone."""
    if target not in graph.nodes:
        raise RefinementError(f"{target.token()} is not in the graph")
    if target.is_input:
        raise RefinementError("inputs cannot be cloned")
    consumers = sorted(graph.consumers(target))
    if len(consumers) < 2:
        raise RefinementError(
            f"{target.token()} has fanout {len(consumers)}; nothing to split"
        )
    instance = 1 + max(
        n.instance for n in graph.nodes if (n.msb, n.lsb) == (target.msb, target.lsb)
    )
    clone = Node(target.msb, target.lsb, instance)
    moved = consumers[len(consumers) - (len(consumers) + 1) // 2 :]
    updates: dict[Node, tuple[Node, Node]] = {clone: graph.parents[target]}
    for c in moved:
        up, lp = graph.parents[c]
        updates[c] = (
            clone if up == target else up,
            clone if lp == target else lp,
        )
    return graph.replace_parents(updates)


def prune_dead(graph: PrefixGraph) -> PrefixGraph:
    """Drop internal nodes that feed nothing and drive no carry output."""
    parents = dict(graph.parents)
    nodes = set(graph.nodes)
    while True:
        cons: dict[Node, int] = {n: 0 for n in nodes}
        for up, lp in parents.values():
            cons[up] += 1
            cons[lp] += 1
        dead = [
            n
            for n in nodes
            if not n.is_input
            and cons[n] == 0
            and not (n.lsb == 0 and n.instance == 0)
        ]
        if not dead:
            break
        for n in dead:
            nodes.discard(n)
            del parents[n]
    return PrefixGraph(graph.width, parents, nodes)
